package brisc

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/guard"
	"repro/internal/vm"
)

// isaMem is the machine memory every engine gets in the ISA tests:
// small enough to hash per run, and its edges are easy to name.
const isaMem = 1 << 12

// isaState is everything an engine's run leaves behind that the ISA
// defines. ra is zeroed: it holds a code address, an instruction index
// in the VM and a byte offset in BRISC.
type isaState struct {
	regs     [vm.NumRegs]int32
	mem      [sha256.Size]byte
	depth    int
	halted   bool
	exitCode int32
	out      string
	steps    int64
	kind     string
}

// errKind names the error class of err, checking the specific
// sentinels before the broad corrupt-code one.
func errKind(err error) string {
	for _, k := range []struct {
		name string
		err  error
	}{
		{"mem-fault", vm.ErrMemFault},
		{"div-by-zero", vm.ErrDivByZero},
		{"illegal", vm.ErrIllegal},
		{"limit", guard.ErrLimit},
		{"bad-pc", vm.ErrBadPC},
		{"corrupt", ErrCorrupt},
	} {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return "ok"
}

func cpuState(c *vm.CPU, out *bytes.Buffer, steps int64, err error) isaState {
	s := isaState{
		regs:     c.Regs,
		mem:      sha256.Sum256(c.Mem),
		depth:    c.Depth,
		halted:   c.Halted,
		exitCode: c.ExitCode,
		out:      out.String(),
		steps:    steps,
		kind:     errKind(err),
	}
	s.regs[vm.RegRA] = 0
	return s
}

type isaEngine struct {
	name string
	run  func(limits guard.Limits) (isaState, error)
}

// isaEngines builds the four engines for p, each with memSize bytes of
// memory: the VM on p itself, BRISC whole-image and paged at one
// resident page, and the VM on the JIT's translation. ok is false when
// p does not compress; err reports any other setup failure.
func isaEngines(p *vm.Program, memSize int) (engines []isaEngine, ok bool, err error) {
	obj, cerr := Compress(p, Options{NoEPI: true})
	if cerr != nil {
		return nil, false, nil
	}
	img, err := BuildXIP(obj, XIPOptions{PageSize: 1})
	if err != nil {
		return nil, true, fmt.Errorf("BuildXIP: %w", err)
	}
	jp, err := JIT(obj)
	if err != nil {
		return nil, true, fmt.Errorf("JIT: %w", err)
	}
	runVM := func(p *vm.Program) func(guard.Limits) (isaState, error) {
		return func(l guard.Limits) (isaState, error) {
			var out bytes.Buffer
			m := vm.NewMachine(p, memSize, &out)
			defer m.Release()
			if err := m.SetLimits(l); err != nil {
				return isaState{}, err
			}
			_, err := m.Run(0)
			return cpuState(&m.CPU, &out, m.Steps, err), err
		}
	}
	runBRISC := func(pages int) func(guard.Limits) (isaState, error) {
		return func(l guard.Limits) (isaState, error) {
			var out bytes.Buffer
			it := NewInterp(obj, memSize, &out)
			defer it.Release()
			if pages > 0 {
				if err := it.EnableXIP(img, pages, 0); err != nil {
					return isaState{}, err
				}
			}
			if err := it.SetLimits(l); err != nil {
				return isaState{}, err
			}
			_, err := it.Run(0)
			return cpuState(&it.CPU, &out, it.Steps, err), err
		}
	}
	return []isaEngine{
		{"vm", runVM(p)},
		{"brisc", runBRISC(0)},
		{"brisc-paged-1", runBRISC(1)},
		{"jit", runVM(jp)},
	}, true, nil
}

func ldi(rd uint8, imm int32) vm.Instr { return vm.Instr{Op: vm.LDI, Rd: rd, Imm: imm} }

func alu(op vm.Opcode, rd, rs1, rs2 uint8) vm.Instr {
	return vm.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

var halt = vm.Instr{Op: vm.HALT}

// binop computes r0 = a op b.
func binop(op vm.Opcode, a, b int32) []vm.Instr {
	return []vm.Instr{ldi(1, a), ldi(2, b), alu(op, 0, 1, 2), halt}
}

// branch exits 2 when the branch r1 op r2 (or r1 op imm) is taken
// and 1 when it falls through.
func branch(op vm.Opcode, a, b int32) []vm.Instr {
	return []vm.Instr{
		ldi(1, a), ldi(2, b),
		{Op: op, Rs1: 1, Rs2: 2, Imm: b, Target: 5},
		ldi(0, 1), halt,
		ldi(0, 2), halt,
	}
}

// memOp runs one load or store at addr; the store writes 0x5a5a5a5a.
func memOp(op vm.Opcode, addr int32) []vm.Instr {
	return []vm.Instr{
		ldi(1, addr), ldi(2, 0x5a5a5a5a),
		{Op: op, Rd: 0, Rs1: 1, Rs2: 2},
		halt,
	}
}

func trap(arg, id int32) []vm.Instr {
	return []vm.Instr{ldi(0, arg), {Op: vm.TRAP, Imm: id}, halt}
}

type isaCase struct {
	name    string
	code    []vm.Instr
	entries []int  // function entry points, for cases that CALL
	want    string // errKind of every engine's run
}

// funcsAt returns one function per ascending entry point of an
// n-instruction program, each ending where the next begins.
func funcsAt(n int, entries []int) []vm.FuncInfo {
	fs := make([]vm.FuncInfo, len(entries))
	for i, e := range entries {
		end := n
		if i+1 < len(entries) {
			end = entries[i+1]
		}
		fs[i] = vm.FuncInfo{Name: fmt.Sprintf("f%d", e), Entry: e, End: end}
	}
	return fs
}

func isaCases() []isaCase {
	cs := []isaCase{
		{name: "ldi-addi-mov", code: []vm.Instr{ldi(1, -7), {Op: vm.ADDI, Rd: 2, Rs1: 1, Imm: 100}, {Op: vm.MOV, Rd: 0, Rs1: 2}, halt}},
		{name: "neg", code: []vm.Instr{ldi(1, 9), {Op: vm.NEG, Rd: 0, Rs1: 1}, halt}},
		{name: "neg-min", code: []vm.Instr{ldi(1, -1<<31), {Op: vm.NEG, Rd: 0, Rs1: 1}, halt}},
		{name: "not", code: []vm.Instr{ldi(1, 0x0f0f), {Op: vm.NOT, Rd: 0, Rs1: 1}, halt}},
		{name: "enter-exit", code: []vm.Instr{{Op: vm.ENTER, Imm: 24}, {Op: vm.MOV, Rd: 0, Rs1: vm.RegSP}, {Op: vm.EXIT, Imm: 16}, halt}},
		{name: "div0", code: binop(vm.DIV, 5, 0), want: "div-by-zero"},
		{name: "rem0", code: binop(vm.REM, 5, 0), want: "div-by-zero"},
		{name: "div-min-by-minus1", code: binop(vm.DIV, -1<<31, -1)},
		{name: "rem-min-by-minus1", code: binop(vm.REM, -1<<31, -1)},
	}
	for _, op := range []vm.Opcode{vm.ADD, vm.SUB, vm.MUL, vm.DIV, vm.REM, vm.AND, vm.OR, vm.XOR} {
		for _, ab := range [][2]int32{{7, 3}, {-7, 3}, {1 << 30, 5}, {-1 << 31, 7}} {
			cs = append(cs, isaCase{name: fmt.Sprintf("%s/%d,%d", op.Name(), ab[0], ab[1]), code: binop(op, ab[0], ab[1])})
		}
	}
	for _, op := range []vm.Opcode{vm.SHL, vm.SHR} {
		for _, n := range []int32{0, 1, 31, 32, 33, 64, -1, -31, -32, -1 << 31} {
			for _, a := range []int32{0x40000001, -5} {
				cs = append(cs, isaCase{name: fmt.Sprintf("%s/%d<>%d", op.Name(), a, n), code: binop(op, a, n)})
			}
		}
	}
	for op := vm.BEQ; op <= vm.BGEI; op++ {
		for _, ab := range [][2]int32{{3, 3}, {2, 3}, {3, 2}, {-1, 1}} {
			cs = append(cs, isaCase{name: fmt.Sprintf("%s/%d,%d", op.Name(), ab[0], ab[1]), code: branch(op, ab[0], ab[1])})
		}
	}
	cs = append(cs, isaCase{name: "jmp", code: []vm.Instr{{Op: vm.JMP, Target: 3}, ldi(0, 1), halt, ldi(0, 2), halt}})

	// Loads and stores at -1 and at the last valid and first invalid
	// address of memory.
	for _, op := range []vm.Opcode{vm.LDW, vm.STW, vm.LDB, vm.STB} {
		width := int32(4)
		if op == vm.LDB || op == vm.STB {
			width = 1
		}
		for _, e := range []struct {
			addr int32
			want string
		}{
			{-1, "mem-fault"},
			{-1 << 31, "mem-fault"},
			{0, ""},
			{isaMem - width, ""},
			{isaMem - width + 1, "mem-fault"},
			{isaMem, "mem-fault"},
			{1<<31 - 1, "mem-fault"},
		} {
			cs = append(cs, isaCase{name: fmt.Sprintf("%s@%d", op.Name(), e.addr), code: memOp(op, e.addr), want: e.want})
		}
	}
	// LDB sign-extends.
	cs = append(cs, isaCase{name: "ldb-sign", code: []vm.Instr{
		ldi(1, 100), ldi(2, 0xf0), {Op: vm.STB, Rs1: 1, Rs2: 2}, {Op: vm.LDB, Rd: 0, Rs1: 1}, halt,
	}})

	// Traps.
	const str = 64 // "hi" stored at 64 by the puts case
	cs = append(cs,
		isaCase{name: "putint", code: trap(-42, vm.TrapPutint)},
		isaCase{name: "putchar", code: trap(0x141, vm.TrapPutchar)},
		isaCase{name: "puts", code: []vm.Instr{
			ldi(1, str), ldi(2, 'h'), {Op: vm.STB, Rs1: 1, Rs2: 2}, ldi(2, 'i'), {Op: vm.STB, Rs1: 1, Rs2: 2, Imm: 1},
			ldi(0, str), {Op: vm.TRAP, Imm: vm.TrapPuts}, halt,
		}},
		isaCase{name: "puts@-1", code: trap(-1, vm.TrapPuts), want: "mem-fault"},
		isaCase{name: "puts@min", code: trap(-1<<31, vm.TrapPuts), want: "mem-fault"},
		isaCase{name: "puts@end", code: trap(isaMem, vm.TrapPuts), want: "mem-fault"},
		isaCase{name: "puts-unterminated", code: []vm.Instr{
			ldi(1, isaMem-1), ldi(2, 'x'), {Op: vm.STB, Rs1: 1, Rs2: 2},
			ldi(0, isaMem-1), {Op: vm.TRAP, Imm: vm.TrapPuts}, halt,
		}, want: "mem-fault"},
		isaCase{name: "exit", code: trap(9, vm.TrapExit)},
		isaCase{name: "unknown-trap", code: trap(0, 99), want: "illegal"},
		isaCase{name: "negative-trap", code: trap(0, -1), want: "illegal"},
	)

	// Calls and returns. Code addresses differ between engines, so no
	// case leaves one in memory or in a compared register.
	cs = append(cs,
		// CALL f; f returns with RJR ra.
		isaCase{name: "call-rjr", code: []vm.Instr{
			ldi(0, 7), {Op: vm.CALL, Target: 4}, {Op: vm.ADDI, Rd: 0, Rs1: 0, Imm: 1}, halt,
			{Op: vm.ADDI, Rd: 0, Rs1: 0, Imm: 10}, {Op: vm.RJR, Rs1: vm.RegRA},
		}, entries: []int{0, 4}},
		// Halt two calls deep: Depth is 2.
		isaCase{name: "call-depth", code: []vm.Instr{
			{Op: vm.CALL, Target: 2}, halt,
			{Op: vm.CALL, Target: 4}, halt,
			ldi(0, 3), halt,
		}, entries: []int{0, 2, 4}},
		// Nested calls unwind through RJR to Depth 0.
		isaCase{name: "rjr-depth", code: []vm.Instr{
			{Op: vm.CALL, Target: 3}, ldi(5, 0), halt,
			{Op: vm.MOV, Rd: 5, Rs1: vm.RegRA}, {Op: vm.CALL, Target: 6}, {Op: vm.RJR, Rs1: 5},
			ldi(0, 4), {Op: vm.RJR, Rs1: vm.RegRA},
		}, entries: []int{0, 3, 6}},
		// RJR at depth 0 (to offset 0, the one address both engines
		// share) leaves Depth at 0.
		isaCase{name: "rjr-depth0", code: []vm.Instr{
			{Op: vm.ADDI, Rd: 1, Rs1: 1, Imm: 1},
			{Op: vm.BEQI, Rs1: 1, Imm: 3, Target: 4},
			ldi(5, 0), {Op: vm.RJR, Rs1: 5},
			{Op: vm.MOV, Rd: 0, Rs1: 1}, halt,
		}},
		// f spills ra and returns with EPI; main then clears the spill.
		isaCase{name: "epi", code: []vm.Instr{
			{Op: vm.CALL, Target: 4}, ldi(1, 0), {Op: vm.STW, Rs1: vm.RegSP, Rs2: 1, Imm: -4}, halt,
			{Op: vm.ENTER, Imm: 8}, {Op: vm.STW, Rs1: vm.RegSP, Rs2: vm.RegRA, Imm: 4}, {Op: vm.EPI, Imm: 8},
		}, entries: []int{0, 4}},
		// EPI with a wild SP: below, beyond, and at the edge of memory.
		isaCase{name: "epi-sp-negative", code: []vm.Instr{ldi(vm.RegSP, -100), {Op: vm.EPI, Imm: 8}, halt}, want: "mem-fault"},
		isaCase{name: "epi-sp-beyond", code: []vm.Instr{ldi(vm.RegSP, isaMem), {Op: vm.EPI, Imm: 8}, halt}, want: "mem-fault"},
		isaCase{name: "epi-sp-max", code: []vm.Instr{ldi(vm.RegSP, 1<<31-1), {Op: vm.EPI, Imm: 8}, halt}, want: "mem-fault"},
		// A wild SP over zeroed memory returns to offset 0 three times.
		isaCase{name: "epi-sp-zero-ra", code: []vm.Instr{
			{Op: vm.ADDI, Rd: 1, Rs1: 1, Imm: 1},
			{Op: vm.BEQI, Rs1: 1, Imm: 3, Target: 4},
			ldi(vm.RegSP, 100), {Op: vm.EPI, Imm: 8},
			{Op: vm.MOV, Rd: 0, Rs1: 1}, halt,
		}},
	)
	for i := range cs {
		if cs[i].want == "" {
			cs[i].want = "ok"
		}
	}
	return cs
}

// TestISASemanticsAcrossEngines runs one small hand-built program per
// opcode and edge case through vm.Machine, BRISC whole-image, BRISC
// paged at one resident page, and the JIT, and requires identical
// registers (ra excepted), memory, Depth, Halted, exit code, output,
// step count and error kind. A faulting instruction is not a step:
// every faulting case faults on its second-to-last instruction, so
// Steps is len(code)-2 in every engine.
func TestISASemanticsAcrossEngines(t *testing.T) {
	limits := guard.Limits{MaxSteps: 10_000}
	covered := map[vm.Opcode]bool{}
	for _, c := range isaCases() {
		for _, ins := range c.code {
			covered[ins.Op] = true
		}
		t.Run(c.name, func(t *testing.T) {
			p := &vm.Program{Name: c.name, Code: c.code, Funcs: funcsAt(len(c.code), c.entries)}
			p.ComputeBlockStarts()
			engines, ok, err := isaEngines(p, isaMem)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("program does not compress")
			}
			var want isaState
			for i, e := range engines {
				got, err := e.run(limits)
				if got.kind != c.want {
					t.Fatalf("%s: error kind %q (%v), want %q", e.name, got.kind, err, c.want)
				}
				if c.want == "ok" && !got.halted {
					t.Errorf("%s: run ended without halting", e.name)
				}
				if c.want != "ok" && got.steps != int64(len(c.code)-2) {
					t.Errorf("%s: %d steps at the fault, want %d: a faulting instruction is not a step", e.name, got.steps, len(c.code)-2)
				}
				if e.name != "vm" && e.name != "jit" && c.want == "illegal" && !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: illegal code error %v does not match ErrCorrupt", e.name, err)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s differs from %s:\n got  %+v\n want %+v", e.name, engines[0].name, got, want)
				}
			}
		})
	}
	for op := vm.Opcode(1); int(op) < vm.NumOpcodes; op++ {
		if !covered[op] {
			t.Errorf("no case executes %s", op.Name())
		}
	}
}

// TestMemSizeEdgeAcrossEngines: at a memory size that is not a whole
// number of pages, every engine accepts a store ending at the last byte
// and faults on one byte further, with the same state left behind.
func TestMemSizeEdgeAcrossEngines(t *testing.T) {
	const size = isaMem + 3
	for _, c := range []struct {
		op   vm.Opcode
		addr int32
		want string
	}{
		{vm.STB, size - 1, "ok"},
		{vm.STB, size, "mem-fault"},
		{vm.STW, size - 4, "ok"},
		{vm.STW, size - 3, "mem-fault"},
		{vm.LDW, size - 4, "ok"},
		{vm.LDW, size - 3, "mem-fault"},
	} {
		name := fmt.Sprintf("%s@%d", c.op.Name(), c.addr)
		p := &vm.Program{Name: name, Code: memOp(c.op, c.addr)}
		p.ComputeBlockStarts()
		engines, ok, err := isaEngines(p, size)
		if err != nil || !ok {
			t.Fatalf("%s: engines: ok %v, err %v", name, ok, err)
		}
		var want isaState
		for i, e := range engines {
			got, err := e.run(guard.Limits{MaxSteps: 100})
			if got.kind != c.want {
				t.Errorf("%s: %s: error kind %q (%v), want %q", name, e.name, got.kind, err, c.want)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: %s differs from %s:\n got  %+v\n want %+v", name, e.name, engines[0].name, got, want)
			}
		}
	}
}

// TestIllegalOpcodeRejected: the VM traps an illegal opcode with
// vm.ErrIllegal, and Compress refuses to encode one, so no BRISC image
// built from a program can drop it or index past the base dictionary.
func TestIllegalOpcodeRejected(t *testing.T) {
	for _, op := range []vm.Opcode{vm.BAD, vm.Opcode(vm.NumOpcodes), 255} {
		p := &vm.Program{Code: []vm.Instr{{Op: op}, halt}}
		if _, err := vm.NewMachine(p, isaMem, nil).Run(0); !errors.Is(err, vm.ErrIllegal) {
			t.Errorf("opcode %d: vm err %v, want vm.ErrIllegal", op, err)
		}
		if _, err := Compress(p, Options{}); err == nil {
			t.Errorf("opcode %d: Compress accepted an illegal opcode", op)
		}
	}
}
