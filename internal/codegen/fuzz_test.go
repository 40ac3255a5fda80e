package codegen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/ir"
)

// fuzzNames is the pool every symbol of a fuzz module is drawn from:
// the runtime's traps and a few user names, so duplicate, missing and
// misnumbered symbols come up often.
var fuzzNames = []string{"main", "f", "g", "h", "putint", "putchar", "puts", "exit"}

// decodeFuzzModule builds a module and options from fuzz bytes; input
// that runs out reads as zeros, so every input is some module. The
// layout, which encodeFuzzModule writes:
//
//	options (bit 0 NoImmediates, bit 1 NoRegDisp)
//	externs (count mod 8), each a name
//	globals (count mod 8), each a name and a size
//	functions (count mod 8), each a name, a parameter count, a frame
//	  size in words, nodes (count, each an op byte and a little-endian
//	  int16 literal) and roots (count, each a byte)
//	symbol table (count), each a name
//
// A name is a byte indexing fuzzNames.
func decodeFuzzModule(data []byte) (*ir.Module, Options) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	name := func() string { return fuzzNames[int(next())%len(fuzzNames)] }
	flags := next()
	opt := Options{NoImmediates: flags&1 != 0, NoRegDisp: flags&2 != 0}
	m := &ir.Module{}
	for n := next() % 8; n > 0; n-- {
		m.Externs = append(m.Externs, name())
	}
	for n := next() % 8; n > 0; n-- {
		m.Globals = append(m.Globals, ir.Global{Name: name(), Size: int(next())})
	}
	for n := next() % 8; n > 0; n-- {
		f := &ir.Function{Name: name(), NumParams: int(next()), FrameSize: 4 * int(next())}
		f.Nodes = make([]ir.Node, next())
		for i := range f.Nodes {
			op, lo := ir.Op(next()), uint16(next())
			f.Nodes[i] = ir.Node{Op: op, Lit: int32(int16(lo | uint16(next())<<8))}
		}
		f.Roots = make([]int32, next())
		for i := range f.Roots {
			f.Roots[i] = int32(next())
		}
		m.Functions = append(m.Functions, f)
	}
	for n := next(); n > 0; n-- {
		m.Syms = append(m.Syms, name())
	}
	return m, opt
}

// encodeFuzzModule writes m and opt in decodeFuzzModule's layout, or
// fails if the layout cannot hold them exactly.
func encodeFuzzModule(m *ir.Module, opt Options) ([]byte, error) {
	var buf []byte
	var err error
	fits := func(what string, v, limit int) byte {
		if (v < 0 || v >= limit) && err == nil {
			err = fmt.Errorf("%s %d does not fit under %d", what, v, limit)
		}
		return byte(v)
	}
	name := func(s string) byte { return fits("name "+s, slices.Index(fuzzNames, s), len(fuzzNames)) }
	var flags byte
	if opt.NoImmediates {
		flags |= 1
	}
	if opt.NoRegDisp {
		flags |= 2
	}
	buf = append(buf, flags, fits("externs", len(m.Externs), 8))
	for _, e := range m.Externs {
		buf = append(buf, name(e))
	}
	buf = append(buf, fits("globals", len(m.Globals), 8))
	for _, g := range m.Globals {
		if g.Init != nil {
			return nil, fmt.Errorf("global %s has an initializer", g.Name)
		}
		buf = append(buf, name(g.Name), fits("global size", g.Size, 256))
	}
	buf = append(buf, fits("functions", len(m.Functions), 8))
	for _, f := range m.Functions {
		if f.FrameSize%4 != 0 {
			return nil, fmt.Errorf("%s: frame size %d is not whole words", f.Name, f.FrameSize)
		}
		buf = append(buf, name(f.Name), fits("params", f.NumParams, 256), fits("frame words", f.FrameSize/4, 256),
			fits("nodes", len(f.Nodes), 256))
		for _, nd := range f.Nodes {
			fits("literal", int(nd.Lit)+1<<15, 1<<16)
			buf = append(buf, byte(nd.Op))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(nd.Lit))
		}
		buf = append(buf, fits("roots", len(f.Roots), 256))
		for _, r := range f.Roots {
			buf = append(buf, fits("root", int(r), 256))
		}
	}
	buf = append(buf, fits("symbols", len(m.Syms), 256))
	for _, s := range m.Syms {
		buf = append(buf, name(s))
	}
	return buf, err
}

// fuzzSeedModules returns a valid compiled module and the invalid
// modules of ir's Validate tests, with whether Validate should accept
// each.
func fuzzSeedModules(t testing.TB) (mods []*ir.Module, valid []bool) {
	add := func(m *ir.Module, ok bool) {
		mods = append(mods, m)
		valid = append(valid, ok)
	}
	// TestValidateRejectsMalformedTrees in package ir, and one valid
	// module Generate rejects. The function is main, so that Generate
	// cannot reject a module for want of one.
	for _, c := range []struct {
		nodes []ir.Node
		roots []int32
		valid bool
	}{
		{[]ir.Node{{Op: ir.ASGNI}, {Op: ir.CNSTC}}, []int32{0}, false},                          // cut short
		{[]ir.Node{{Op: ir.Op(200)}}, []int32{0}, false},                                        // invalid op
		{[]ir.Node{{Op: ir.RETV}, {Op: ir.RETV}}, []int32{0}, false},                            // trailing nodes
		{[]ir.Node{{Op: ir.RETV}, {Op: ir.RETV}}, []int32{0, 5}, false},                         // root past the end
		{[]ir.Node{{Op: ir.RETV}}, nil, false},                                                  // nodes but no trees
		{[]ir.Node{{Op: ir.RETI}, {Op: ir.CNSTC}}, []int32{0, 1}, false},                        // root mid-tree
		{[]ir.Node{{Op: ir.CALLV}, {Op: ir.ADDRGP, Lit: 7}}, []int32{0}, false},                 // unknown symbol
		{[]ir.Node{{Op: ir.RETI}, {Op: ir.INDIRI}, {Op: ir.ADDRFP, Lit: -4}}, []int32{0}, true}, // negative parameter offset
	} {
		f := &ir.Function{Name: "main", Nodes: c.nodes, Roots: c.roots}
		add(&ir.Module{Functions: []*ir.Function{f}, Syms: []string{"main"}}, c.valid)
	}

	// TestModuleValidateCatchesBadLabels in package ir, on a compiled
	// module with labels, calls, a global and a trap.
	compile := func() *ir.Module {
		m, err := cc.Compile("seed", `
int g;
int f(int a) { if (a < 2) return a; return f(a - 1) + g; }
int main(void) { g = 3; putint(f(4)); return f(2); }`)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	appendTree := func(m *ir.Module, fn int, src string) *ir.Module {
		if err := m.AppendTree(m.Functions[fn], src); err != nil {
			t.Fatal(err)
		}
		return m
	}
	add(compile(), true)
	add(appendTree(compile(), 0, "JUMPV[99]"), false) // undefined label
	dup := compile()
	for _, nd := range dup.Functions[0].Nodes {
		if nd.Op == ir.LABELV {
			appendTree(dup, 0, fmt.Sprintf("LABELV[%d]", nd.Lit))
			break
		}
	}
	add(dup, false)
	unknown := compile()
	f := unknown.Functions[0]
	f.Roots = append(f.Roots, int32(len(f.Nodes)))
	f.Nodes = append(f.Nodes, ir.Node{Op: ir.CALLV}, ir.Node{Op: ir.ADDRGP, Lit: int32(len(unknown.Syms))})
	add(unknown, false)
	dupFunc := compile()
	dupFunc.Functions = append(dupFunc.Functions, &ir.Function{Name: "f"})
	add(dupFunc, false)
	swapped := compile()
	swapped.Syms[0], swapped.Syms[1] = swapped.Syms[1], swapped.Syms[0]
	add(swapped, false)
	return mods, valid
}

// FuzzGenerate: Generate never panics, and rejects every module
// Validate rejects, although it makes the per-node checks in its own
// walk instead of calling Validate.
func FuzzGenerate(f *testing.F) {
	mods, valid := fuzzSeedModules(f)
	for i, m := range mods {
		if (m.Validate() == nil) != valid[i] {
			f.Fatalf("seed %d: Validate = %v, want valid %v", i, m.Validate(), valid[i])
		}
		for _, opt := range []Options{{}, {NoImmediates: true, NoRegDisp: true}} {
			data, err := encodeFuzzModule(m, opt)
			if err != nil {
				f.Fatalf("seed %d: %v", i, err)
			}
			back, bopt := decodeFuzzModule(data)
			if again, _ := encodeFuzzModule(back, bopt); !bytes.Equal(again, data) {
				f.Fatalf("seed %d does not survive the fuzz layout", i)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, opt := decodeFuzzModule(data)
		verr := m.Validate()
		if _, err := Generate(m, opt); err == nil && verr != nil {
			t.Fatalf("Generate accepts a module Validate rejects (%v):\n%s", verr, m)
		}
	})
}
