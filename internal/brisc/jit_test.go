package brisc

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/vm"
	"repro/internal/workload"
)

// maxDecodeAllocs bounds the allocations of one whole-image decode
// (buildPredecode) and of one JIT, whatever the image size: each table
// is allocated once, presized before the walk. Measured on go1.24:
// 6 for buildPredecode and 13 for JIT, on lcc and on gcc alike.
const maxDecodeAllocs = 16

// decodeAllocObjs caches decodeAllocObjects' result: compressing gcc
// takes tens of seconds under the race detector.
var decodeAllocObjs []*Object

// decodeAllocObjects compresses the lcc and gcc presets, the images the
// allocation bounds are checked on.
func decodeAllocObjects(t *testing.T) []*Object {
	t.Helper()
	if testing.Short() {
		t.Skip("compresses the lcc and gcc presets; run without -short")
	}
	if decodeAllocObjs == nil {
		lcc := xipObject(t, "lcc", workload.Generate(workload.Lcc), Options{})
		gcc := xipObject(t, "gcc", workload.Generate(workload.Gcc), Options{})
		decodeAllocObjs = []*Object{lcc, gcc}
	}
	return decodeAllocObjs
}

// TestPredecodeAllocs: whole-image predecode allocates a constant
// number of times, not once per regrowth of its unit and instruction
// tables.
func TestPredecodeAllocs(t *testing.T) {
	for _, obj := range decodeAllocObjects(t) {
		var pre *predecoded
		n := testing.AllocsPerRun(3, func() {
			var err error
			if pre, err = obj.buildPredecode(); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxDecodeAllocs {
			t.Errorf("%s: buildPredecode allocates %v times for %d units, %d instructions; want at most %d",
				obj.Name, n, len(pre.units), len(pre.code), maxDecodeAllocs)
		}
		if cap(pre.units) != len(obj.Code)*unitsPerByteNum/unitsPerByteDen {
			t.Errorf("%s: unit table regrew: %d units, cap %d", obj.Name, len(pre.units), cap(pre.units))
		}
		if cap(pre.code) != len(obj.Code)*instrsPerByteNum/instrsPerByteDen {
			t.Errorf("%s: instruction table regrew: %d instructions, cap %d", obj.Name, len(pre.code), cap(pre.code))
		}
		t.Logf("%s: %v allocs, %d code bytes, %d units, %d instructions", obj.Name, n, len(obj.Code), len(pre.units), len(pre.code))
	}
}

// TestJITAllocs: JIT allocates a constant number of times: its own
// presized decode, the function table and the block starts.
func TestJITAllocs(t *testing.T) {
	for _, obj := range decodeAllocObjects(t) {
		var p *vm.Program
		n := testing.AllocsPerRun(3, func() {
			var err error
			if p, err = JIT(obj); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxDecodeAllocs {
			t.Errorf("%s: JIT allocates %v times for %d instructions; want at most %d", obj.Name, n, len(p.Code), maxDecodeAllocs)
		}
		t.Logf("%s: %v allocs, %d instructions", obj.Name, n, len(p.Code))
	}
}

// TestJITOwnsItsCode: every JIT returns a program of its own. Two
// translations are equal but share no code, function or block-start
// array, neither shares the interpreter's cached predecode, and
// scribbling over a translation's code leaves later interpreter runs
// unchanged.
func TestJITOwnsItsCode(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	run := func(it *Interp) (int32, string, int64) {
		t.Helper()
		var out bytes.Buffer
		it.Out = &out
		code, err := it.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return code, out.String(), it.Steps
	}
	jit := func() *vm.Program {
		t.Helper()
		p, err := JIT(obj)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	distinct := func(what string, a, b *vm.Program) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: programs differ", what)
		}
		if &a.Code[0] == &b.Code[0] || &a.Funcs[0] == &b.Funcs[0] || &a.BlockStarts[0] == &b.BlockStarts[0] {
			t.Errorf("%s: programs share a backing array", what)
		}
	}

	p1, p2 := jit(), jit()
	distinct("JIT twice", p1, p2)
	if obj.pred != nil {
		t.Error("JIT filled the interpreter's predecode cache")
	}

	it := NewInterp(obj, 0, nil)
	code, out, steps := run(it)
	p3 := jit()
	distinct("JIT after Run", p1, p3)
	if &p3.Code[0] == &it.pre.code[0] {
		t.Error("JIT after Run returned the interpreter's instruction table")
	}

	for _, p := range []*vm.Program{p1, p2, p3} {
		for i := range p.Code {
			p.Code[i] = vm.Instr{Op: vm.HALT, Imm: -1, Target: -1}
		}
	}
	it.Reset()
	if c, o, s := run(it); c != code || o != out || s != steps {
		t.Errorf("rerun after scribbling: exit %d, %d steps, output %q; want %d, %d, %q", c, s, o, code, steps, out)
	}
	if c, o, s := run(NewInterp(obj, 0, nil)); c != code || o != out || s != steps {
		t.Errorf("fresh run after scribbling: exit %d, %d steps, output %q; want %d, %d, %q", c, s, o, code, steps, out)
	}
}
