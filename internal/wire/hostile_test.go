package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bitio"
	"repro/internal/ir"
)

// The decoder checks what ir.Module.Validate checks (symbol
// collisions in the header, labels during the rebuild) instead of
// validating the rebuilt module again. These tests encode invalid
// modules with encodeContainer/finalize and compressIndexed, which skip
// the encoder's Validate, so the decoder is the only line of defence.

// hostileBase is a small valid module that exercises every fused
// check: a forward JUMPV, a backward compare-branch, and ADDRGP
// references to an extern, a global and a function.
func hostileBase() *ir.Module {
	main := &ir.Function{Name: "main"}
	aux := &ir.Function{Name: "aux"}
	m := &ir.Module{
		Name:      "hostile",
		Externs:   []string{"putint"},
		Globals:   []ir.Global{{Name: "g", Size: 4}},
		Functions: []*ir.Function{main, aux},
	}
	m.IndexSymbols()
	appendTrees(m, main,
		"JUMPV[2]", // forward reference
		"LABELV[1]",
		"ASGNI(ADDRGP[g],CNSTI[7])",
		"LABELV[2]",
		"CALLV(ADDRGP[aux])",
		"ARGI(INDIRI(ADDRGP[g]))",
		"CALLV(ADDRGP[putint])",
		"EQI[1](CNSTI[0],CNSTI[1])",
		"RETI(CNSTI[0])")
	appendTrees(m, aux, "LABELV[1]", "RETV")
	return m
}

// appendTrees appends trees in the textual form to f; the sources are
// fixed, so a parse error is a bug in the test.
func appendTrees(m *ir.Module, f *ir.Function, srcs ...string) {
	for _, src := range srcs {
		if err := m.AppendTree(f, src); err != nil {
			panic(err)
		}
	}
}

// retv is a function whose one tree is RETV.
func retv(name string) *ir.Function {
	return &ir.Function{Name: name, Nodes: []ir.Node{{Op: ir.RETV}}, Roots: []int32{0}}
}

// hostileCases mutates hostileBase into modules Validate rejects.
// label is true when the defect is in main's trees (caught by the
// fill) rather than in the symbol table (caught by the header).
var hostileCases = []struct {
	name   string
	label  bool
	mutate func(m *ir.Module)
}{
	{"global repeats extern", false, func(m *ir.Module) {
		m.Globals = append(m.Globals, ir.Global{Name: "putint", Size: 4})
	}},
	{"repeated global", false, func(m *ir.Module) {
		m.Globals = append(m.Globals, ir.Global{Name: "g", Size: 8})
	}},
	{"function repeats global", false, func(m *ir.Module) {
		m.Functions = append(m.Functions, retv("g"))
	}},
	{"function repeats function", false, func(m *ir.Module) {
		m.Functions = append(m.Functions, retv("aux"))
	}},
	{"label defined twice", true, func(m *ir.Module) {
		appendTrees(m, m.Functions[0], "LABELV[1]")
	}},
	{"branch to undefined label", true, func(m *ir.Module) {
		appendTrees(m, m.Functions[0], "LTI[9](CNSTI[0],CNSTI[1])")
	}},
	{"jump to undefined label", true, func(m *ir.Module) {
		appendTrees(m, m.Functions[0], "JUMPV[9]")
	}},
}

// encodeUnchecked builds a WIR2 object without the encoder's Validate.
func encodeUnchecked(t testing.TB, m *ir.Module) []byte {
	t.Helper()
	_, container, err := encodeContainer(m, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := finalize(container, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeIndexedUnchecked builds a WIRX object without the encoder's
// Validate.
func encodeIndexedUnchecked(t testing.TB, m *ir.Module) []byte {
	t.Helper()
	data, err := compressIndexed(m, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsInvalidModules(t *testing.T) {
	for _, tc := range hostileCases {
		t.Run(tc.name, func(t *testing.T) {
			m := hostileBase()
			tc.mutate(m)
			if m.Validate() == nil {
				t.Fatal("the oracle accepts the mutated module")
			}

			if _, err := Decompress(encodeUnchecked(t, m)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("WIR2 Decompress: %v, want ErrCorrupt", err)
			}

			data := encodeIndexedUnchecked(t, m)
			r, err := OpenIndexed(data)
			if !tc.label {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("WIRX OpenIndexed: %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("WIRX OpenIndexed: %v", err)
			}
			// The defect is in main alone: aux still loads on its own.
			if _, err := r.LoadFunction("aux"); err != nil {
				t.Errorf("WIRX LoadFunction(aux): %v", err)
			}
			if _, err := r.LoadFunction("main"); !errors.Is(err, ErrCorrupt) {
				t.Errorf("WIRX LoadFunction(main): %v, want ErrCorrupt", err)
			}
			r, err = OpenIndexed(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.LoadAll(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("WIRX LoadAll: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDecodeAcceptsValidEdgeCases(t *testing.T) {
	repeated := hostileBase()
	// A repeated extern shifts every later symbol's index unless the
	// decoder numbers symbols first-occurrence-wins like the encoder.
	repeated.Externs = []string{"putint", "putint"}
	for name, m := range map[string]*ir.Module{
		"forward label reference": hostileBase(),
		"repeated extern":         repeated,
	} {
		t.Run(name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			back, err := Decompress(encodeUnchecked(t, m))
			if err != nil {
				t.Fatalf("WIR2 Decompress: %v", err)
			}
			if !modulesEqual(m, back) {
				t.Error("WIR2 round trip mismatch")
			}
			r, err := OpenIndexed(encodeIndexedUnchecked(t, m))
			if err != nil {
				t.Fatalf("WIRX OpenIndexed: %v", err)
			}
			if _, err := r.LoadFunction("main"); err != nil {
				t.Fatalf("WIRX LoadFunction(main): %v", err)
			}
			back, err = r.LoadAll()
			if err != nil {
				t.Fatalf("WIRX LoadAll: %v", err)
			}
			if !modulesEqual(m, back) {
				t.Error("WIRX round trip mismatch")
			}
		})
	}
}

// TestRebuildBadShapeID: an out-of-range shape id after a valid tree
// leaves the node array, sized from the stream's valid ids, short of
// the stream's trees; the fill must still fail cleanly at the bad id.
func TestRebuildBadShapeID(t *testing.T) {
	shapes := [][]ir.Op{{ir.RETI, ir.ADDI, ir.CNSTI, ir.CNSTI}}
	var lits [ir.NumOps][]int32
	lits[ir.CNSTI] = []int32{1, 2}
	fns := []*ir.Function{{Name: "f"}}
	err := fill(fns, []int{2}, []int32{0, 99}, shapes, &lits, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fill: %v, want ErrCorrupt", err)
	}
}

// TestShapeTableRejectsMalformedShapes: a shape must be exactly one
// tree in prefix order, or the trees filled from it would not be.
func TestShapeTableRejectsMalformedShapes(t *testing.T) {
	for name, shape := range map[string][]ir.Op{
		"trailing ops":    {ir.RETV, ir.RETV},
		"missing operand": {ir.RETI, ir.ADDI, ir.CNSTI},
	} {
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		writeShapeTable(bw, [][]ir.Op{{ir.RETV}, shape})
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := readShapeTable(bitio.NewReaderBytes(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
