package brisc

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/vm"
	"repro/internal/workload"
)

// maxDecodeAllocs bounds the allocations of one whole-image decode
// (decodeImage) and of one JIT, whatever the image size: each table
// is allocated once, presized before the walk. Measured on go1.24:
// 4 for decodeImage and 7 for JIT, on lcc and on gcc alike.
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

// TestPredecodeAllocs: a whole-image decode allocates a constant
// number of times, not once per regrowth of its unit and instruction
// tables.
func TestPredecodeAllocs(t *testing.T) {
	for _, obj := range decodeAllocObjects(t) {
		var tab *unitTable
		n := testing.AllocsPerRun(3, func() {
			var err error
			if tab, err = obj.decodeImage(); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxDecodeAllocs {
			t.Errorf("%s: decodeImage allocates %v times for %d units, %d instructions; want at most %d",
				obj.Name, n, len(tab.units), len(tab.code), maxDecodeAllocs)
		}
		if cap(tab.units) != len(obj.Code)*unitsPerByteNum/unitsPerByteDen {
			t.Errorf("%s: unit table regrew: %d units, cap %d", obj.Name, len(tab.units), cap(tab.units))
		}
		if cap(tab.code) != len(obj.Code)*instrsPerByteNum/instrsPerByteDen {
			t.Errorf("%s: instruction table regrew: %d instructions, cap %d", obj.Name, len(tab.code), cap(tab.code))
		}
		t.Logf("%s: %v allocs, %d code bytes, %d units, %d instructions", obj.Name, n, len(obj.Code), len(tab.units), len(tab.code))
	}
}

// TestJITAllocs: JIT allocates a constant number of times: its
// presized code and block table, the block marks, the function table
// and the block starts.
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

// TestJITOwnsItsCode: every executor owns its decoded code. Two JIT
// translations are equal but share no code, function or block-start
// array; neither shares an interpreter's table; two Interps on one
// Object decode into tables of their own; an Interp that ran
// whole-image and is then switched to paged mode holds no whole-image
// table; and scribbling over a translation's code leaves later
// interpreter runs unchanged.
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
	shares := func(a, b *unitTable) bool {
		return a == b || &a.code[0] == &b.code[0] || &a.units[0] == &b.units[0] || &a.idx[0] == &b.idx[0]
	}

	p1, p2 := jit(), jit()
	distinct("JIT twice", p1, p2)

	it := NewInterp(obj, 0, nil)
	code, out, steps := run(it)
	p3 := jit()
	distinct("JIT after Run", p1, p3)
	if &p3.Code[0] == &it.image.code[0] {
		t.Error("JIT after Run returned the interpreter's instruction table")
	}

	it2 := NewInterp(obj, 0, nil)
	if c, o, s := run(it2); c != code || o != out || s != steps {
		t.Errorf("second Interp: exit %d, %d steps, output %q; want %d, %d, %q", c, s, o, code, steps, out)
	}
	if shares(it.image, it2.image) {
		t.Error("two Interps on one Object share a decoded table")
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

	img, err := BuildXIP(obj, XIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := it2.EnableXIP(img, 2, 0); err != nil {
		t.Fatal(err)
	}
	it2.Reset()
	if c, o, s := run(it2); c != code || o != out || s != steps {
		t.Errorf("paged rerun: exit %d, %d steps, output %q; want %d, %d, %q", c, s, o, code, steps, out)
	}
	if it2.image != nil {
		t.Error("an Interp Reset into paged mode still holds a whole-image table")
	}
	if it2.XIPStats().Faults == 0 {
		t.Error("paged rerun faulted no page")
	}
}

// TestWholeImageWarmRunAllocs pins that the whole image is decoded
// once per Interp: a warm Reset+Run keeps the table the first Run
// decoded and allocates only what the program's output traps do, as
// many times as a vm.Machine running the JIT'd program (a decode would
// add several allocations per run).
func TestWholeImageWarmRunAllocs(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	p, err := JIT(obj)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(p, 0, io.Discard)
	vmAllocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
	})

	it := NewInterp(obj, 0, io.Discard)
	run := func() {
		it.Reset()
		if _, err := it.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	tab := it.image
	if tab == nil {
		t.Fatal("whole-image Run left no decoded table")
	}
	if n := testing.AllocsPerRun(10, run); n > vmAllocs {
		t.Errorf("warm whole-image run allocates %v times, want at most the VM's %v", n, vmAllocs)
	}
	if it.image != tab {
		t.Error("Reset+Run decoded the image again")
	}
}

// TestSharedObjectConcurrentEngines runs one Object concurrently
// through whole-image Interps, paged Interps and JIT translations
// (the race detector checks that they share no mutable decoded
// state); every run must report the same exit code, output and steps.
func TestSharedObjectConcurrentEngines(t *testing.T) {
	obj := xipObject(t, "qsortk", workload.Kernels()["qsortk"], Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code  int32
		out   string
		steps int64
		err   error
	}
	engines := map[string]func() result{
		"whole-image": func() result {
			var out bytes.Buffer
			it := NewInterp(obj, 0, &out)
			code, err := it.Run(0)
			return result{code, out.String(), it.Steps, err}
		},
		"paged": func() result {
			var out bytes.Buffer
			it := NewInterp(obj, 0, &out)
			if err := it.EnableXIP(img, 1, 0); err != nil {
				return result{err: err}
			}
			code, err := it.Run(0)
			return result{code, out.String(), it.Steps, err}
		},
		"jit": func() result {
			p, err := JIT(obj)
			if err != nil {
				return result{err: err}
			}
			var out bytes.Buffer
			m := vm.NewMachine(p, 0, &out)
			code, err := m.Run(0)
			return result{code, out.String(), m.Steps, err}
		},
	}
	want := engines["whole-image"]()
	if want.err != nil || want.out == "" {
		t.Fatalf("reference run: exit %d, output %q, err %v", want.code, want.out, want.err)
	}
	const perEngine = 2
	var wg sync.WaitGroup
	for name, run := range engines {
		for range perEngine {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := run(); got != want {
					t.Errorf("%s: exit %d, %d steps, output %q, err %v; want %d, %d, %q",
						name, got.code, got.steps, got.out, got.err, want.code, want.steps, want.out)
				}
			}()
		}
	}
	wg.Wait()
}

// withBlocks returns a copy of o with another block table.
func withBlocks(o *Object, blocks []int32) *Object {
	return &Object{
		Name: o.Name, Dict: o.Dict, Contexts: o.Contexts, Code: o.Code,
		Blocks: blocks, Funcs: o.Funcs, Globals: o.Globals, DataSize: o.DataSize, Passes: o.Passes,
	}
}

// TestJITDecodeMatchesImage: the JIT's own decode gives the code and
// unit count of the whole-image unit table, and each block's first
// instruction is the one that table's unit at the block's offset
// starts; the JIT's BlockStarts is exactly the set
// vm.Program.ComputeBlockStarts computes from its code and functions.
// It runs on the presets and kernels, whose first block is not at
// offset 0 (the code before it is a preamble segment, which no block
// names), and on the same images with a block at offset 0 instead, or
// with every third block offset doubled, which no compressor writes.
func TestJITDecodeMatchesImage(t *testing.T) {
	objs := []*Object{xipObject(t, "wep", workload.Generate(workload.Wep), Options{})}
	var kernels []string
	for name := range workload.Kernels() {
		kernels = append(kernels, name)
	}
	slices.Sort(kernels)
	for _, name := range kernels {
		objs = append(objs, xipObject(t, name, workload.Kernels()[name], Options{}))
	}
	if !testing.Short() {
		objs = append(objs, decodeAllocObjects(t)...)
	}
	check := func(name string, obj *Object) {
		t.Helper()
		tab, err := obj.decodeImage()
		if err != nil {
			t.Fatalf("%s: decodeImage: %v", name, err)
		}
		code, blockInstr, units, err := obj.jitDecode()
		if err != nil {
			t.Fatalf("%s: jitDecode: %v", name, err)
		}
		if !slices.Equal(code, tab.code) || units != len(tab.units) {
			t.Fatalf("%s: JIT decoded %d instructions in %d units, the unit table %d in %d (or they differ)",
				name, len(code), units, len(tab.code), len(tab.units))
		}
		for b, off := range obj.Blocks {
			if want := tab.units[tab.idx[off]].first; blockInstr[b] != want {
				t.Fatalf("%s: block %d at offset %d starts at instruction %d, the unit table says %d", name, b, off, blockInstr[b], want)
			}
		}
		p, err := JIT(obj)
		if err != nil {
			t.Fatalf("%s: JIT: %v", name, err)
		}
		ref := &vm.Program{Code: p.Code, Funcs: p.Funcs}
		ref.ComputeBlockStarts()
		if !slices.Equal(p.BlockStarts, ref.BlockStarts) {
			t.Fatalf("%s: JIT block starts %v\nComputeBlockStarts %v", name, p.BlockStarts, ref.BlockStarts)
		}
	}
	for _, obj := range objs {
		check(obj.Name, obj)
		// A compiled program's start-up code is not a block, so every
		// image here opens with a preamble segment.
		bl := obj.Blocks
		if len(bl) == 0 || bl[0] == 0 {
			t.Fatalf("%s: no preamble before the first block", obj.Name)
		}
		// A block at offset 0 in place of the preamble: both decode
		// from context 0.
		check(obj.Name+"/block0", withBlocks(obj, append([]int32{0}, bl...)))
		// Every third offset doubled.
		var dup []int32
		for b, off := range bl {
			dup = append(dup, off)
			if b%3 == 0 {
				dup = append(dup, off)
			}
		}
		check(obj.Name+"/dup", withBlocks(obj, dup))
	}
}
