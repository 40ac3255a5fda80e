package vm_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/vm"
	"repro/internal/workload"
)

// blockStartsRef is the map-based ComputeBlockStarts the dense version
// replaced, kept as the reference it must match.
func blockStartsRef(p *vm.Program) []int {
	mark := make(map[int]bool)
	for _, f := range p.Funcs {
		mark[f.Entry] = true
	}
	for i, ins := range p.Code {
		switch {
		case ins.Op.IsBranch() || ins.Op == vm.JMP:
			mark[int(ins.Target)] = true
			mark[i+1] = true
		case ins.Op == vm.CALL:
			mark[i+1] = true
		case ins.Op == vm.RJR || ins.Op == vm.EPI || ins.Op == vm.HALT:
			if i+1 < len(p.Code) {
				mark[i+1] = true
			}
		}
	}
	var out []int
	for i := range p.Code {
		if mark[i] {
			out = append(out, i)
		}
	}
	return out
}

func checkBlockStarts(t *testing.T, name string, p *vm.Program) {
	t.Helper()
	p.ComputeBlockStarts()
	if want := blockStartsRef(p); !slices.Equal(p.BlockStarts, want) {
		t.Errorf("%s: block starts %v, map reference %v", name, p.BlockStarts, want)
	}
}

// exampleModules compiles the shared example modules and the wep and
// lcc workload presets.
func exampleModules(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"wep": workload.Generate(workload.Wep),
		"lcc": workload.Generate(workload.Lcc),
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc"))
	if len(files) == 0 {
		t.Fatal("no example modules found")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	return srcs
}

func TestComputeBlockStartsMatchesMapReference(t *testing.T) {
	for name, src := range exampleModules(t) {
		mod, err := cc.Compile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []codegen.Options{{}, {NoImmediates: true}, {NoRegDisp: true}} {
			p, err := codegen.Generate(mod, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkBlockStarts(t, name, p)
		}
	}

	// Hostile programs, as native decodes them from untrusted bytes:
	// targets and entries outside the code are dropped.
	base := []vm.Instr{
		{Op: vm.LDI, Rd: 4},
		{Op: vm.BEQI, Rs1: 4, Target: 3},
		{Op: vm.JMP, Target: 0},
		{Op: vm.CALL, Target: 1},
		{Op: vm.HALT},
	}
	for _, target := range []int32{-1, int32(len(base)), math.MaxInt32, math.MinInt32} {
		for at := 1; at <= 3; at++ {
			code := slices.Clone(base)
			code[at].Target = target
			checkBlockStarts(t, "hostile target", &vm.Program{Code: code})
		}
	}
	for _, entry := range []int{-1, len(base), math.MaxInt32, math.MinInt} {
		p := &vm.Program{Code: slices.Clone(base), Funcs: []vm.FuncInfo{{Name: "f", Entry: entry}, {Name: "g", Entry: 2}}}
		checkBlockStarts(t, "hostile entry", p)
	}
	checkBlockStarts(t, "empty", &vm.Program{Funcs: []vm.FuncInfo{{Name: "f"}}})
}

// memProgram has a data segment with init bytes and one uninitialized
// global.
func memProgram() *vm.Program {
	p := &vm.Program{
		Code: []vm.Instr{{Op: vm.HALT}},
		Globals: []vm.GlobalData{
			{Name: "a", Addr: 16, Size: 8, Init: []byte{1, 2, 3}},
			{Name: "b", Addr: 24, Size: 4},
			{Name: "c", Addr: 28, Size: 4, Init: []byte{0xFF, 0, 0x7F, 9}},
		},
		DataSize: 32,
	}
	p.ComputeBlockStarts()
	return p
}

// checkFreshMemory asserts mem is zero apart from the globals' init
// bytes, and the stack pointer sits at the top of memory.
func checkFreshMemory(t *testing.T, what string, mem []byte, sp int32, globals []vm.GlobalData) {
	t.Helper()
	want := make([]byte, len(mem))
	for _, g := range globals {
		copy(want[g.Addr:], g.Init)
	}
	if !bytes.Equal(mem, want) {
		for i := range mem {
			if mem[i] != want[i] {
				t.Fatalf("%s: mem[%d] = %#x, want %#x", what, i, mem[i], want[i])
			}
		}
	}
	if int(sp) != len(mem) {
		t.Errorf("%s: sp = %d, want %d", what, sp, len(mem))
	}
}

func TestNewMachineStartsZeroed(t *testing.T) {
	p := memProgram()
	for _, size := range []int{0, 4096, 4096 + 3} {
		m := vm.NewMachine(p, size, nil)
		checkFreshMemory(t, "NewMachine", m.Mem, m.Regs[vm.RegSP], p.Globals)
		if m.PC != 0 || m.Steps != 0 || m.Halted || m.ExitCode != 0 || m.Depth != 0 {
			t.Errorf("NewMachine state: pc %d steps %d halted %v exit %d depth %d", m.PC, m.Steps, m.Halted, m.ExitCode, m.Depth)
		}
		// Dirty everything Reset must restore.
		for i := range m.Mem {
			m.Mem[i] = byte(i) | 1
		}
		m.Regs[vm.RegSP], m.Regs[4] = 8, 99
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		checkFreshMemory(t, "Reset", m.Mem, m.Regs[vm.RegSP], p.Globals)
		if m.Regs[4] != 0 || m.Halted || m.Steps != 0 {
			t.Errorf("Reset left r4 %d halted %v steps %d", m.Regs[4], m.Halted, m.Steps)
		}
	}
}
