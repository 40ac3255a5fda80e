package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// handProgram assembles a tiny program by hand: compute 6*7, print it,
// exit 0.
func handProgram() *Program {
	p := &Program{
		Name: "hand",
		Code: []Instr{
			{Op: LDI, Rd: 4, Imm: 6},
			{Op: LDI, Rd: 5, Imm: 7},
			{Op: MUL, Rd: 4, Rs1: 4, Rs2: 5},
			{Op: MOV, Rd: RegArg0, Rs1: 4},
			{Op: TRAP, Imm: TrapPutint},
			{Op: LDI, Rd: RegArg0, Imm: 0},
			{Op: HALT},
		},
	}
	p.ComputeBlockStarts()
	return p
}

func TestInterpBasic(t *testing.T) {
	var out bytes.Buffer
	m := NewMachine(handProgram(), 1<<16, &out)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if out.String() != "42\n" {
		t.Errorf("output = %q", out.String())
	}
	if m.Steps != 7 {
		t.Errorf("steps = %d, want 7", m.Steps)
	}
}

func TestInterpBranchesAndLoop(t *testing.T) {
	// sum 1..10 with a BLEI loop.
	p := &Program{Code: []Instr{
		{Op: LDI, Rd: 4, Imm: 0},         // sum
		{Op: LDI, Rd: 5, Imm: 1},         // i
		{Op: ADD, Rd: 4, Rs1: 4, Rs2: 5}, // 2: loop
		{Op: ADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: BLEI, Rs1: 5, Imm: 10, Target: 2},
		{Op: MOV, Rd: RegArg0, Rs1: 4},
		{Op: TRAP, Imm: TrapExit},
	}}
	m := NewMachine(p, 1<<16, nil)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 55 {
		t.Errorf("exit = %d, want 55", code)
	}
}

// TestAssembleEveryBranchForm runs each compare-and-branch opcode on a
// comparison it must take, plus one BEQ it must not; any wrong decision
// lands on the exit-1 block.
func TestAssembleEveryBranchForm(t *testing.T) {
	taken := []Instr{
		{Op: BNE, Rs1: 1, Rs2: 2}, {Op: BLT, Rs1: 1, Rs2: 2},
		{Op: BLE, Rs1: 1, Rs2: 2}, {Op: BGT, Rs1: 2, Rs2: 1},
		{Op: BGE, Rs1: 2, Rs2: 1}, {Op: BEQI, Rs1: 1, Imm: 5},
		{Op: BNEI, Rs1: 1, Imm: 9}, {Op: BLTI, Rs1: 1, Imm: 6},
		{Op: BLEI, Rs1: 1, Imm: 5}, {Op: BGTI, Rs1: 1, Imm: 4},
		{Op: BGEI, Rs1: 1, Imm: 5},
	}
	bad := int32(4 + 2*len(taken)) // after the preamble, the pairs and the jump to good
	code := []Instr{
		{Op: LDI, Rd: 1, Imm: 5},
		{Op: LDI, Rd: 2, Imm: 6},
		{Op: BEQ, Rs1: 1, Rs2: 2, Target: bad},
	}
	for _, b := range taken {
		b.Target = int32(len(code) + 2)
		code = append(code, b, Instr{Op: JMP, Target: bad})
	}
	code = append(code,
		Instr{Op: JMP, Target: bad + 2}, // every branch taken: skip to good
		Instr{Op: LDI, Rd: RegArg0, Imm: 1},
		Instr{Op: TRAP, Imm: TrapExit},
		Instr{Op: LDI, Rd: RegArg0, Imm: 0},
		Instr{Op: TRAP, Imm: TrapExit},
	)
	m := NewMachine(&Program{Code: code}, 1<<16, nil)
	exit, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 0 {
		t.Error("branch semantics test took the wrong path")
	}
}

func TestInterpCallReturn(t *testing.T) {
	// main: call f; exit(r0). f: r0 = 99; rjr ra.
	p := &Program{Code: []Instr{
		{Op: CALL, Target: 3},
		{Op: TRAP, Imm: TrapExit},
		{Op: HALT},
		{Op: LDI, Rd: RegArg0, Imm: 99}, // 3: f
		{Op: RJR, Rs1: RegRA},
	}}
	m := NewMachine(p, 1<<16, nil)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 99 {
		t.Errorf("exit = %d, want 99", code)
	}
}

func TestInterpEnterExitEpi(t *testing.T) {
	// Frame push/pop with ra spill and EPI return.
	p := &Program{Code: []Instr{
		{Op: CALL, Target: 3},
		{Op: TRAP, Imm: TrapExit},
		{Op: HALT},
		// f: enter 16; save ra at 12(sp); r0=7; epi 16
		{Op: ENTER, Imm: 16},
		{Op: STW, Rs1: RegSP, Rs2: RegRA, Imm: 12},
		{Op: LDI, Rd: RegArg0, Imm: 7},
		{Op: EPI, Imm: 16},
	}}
	m := NewMachine(p, 1<<16, nil)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 7 {
		t.Errorf("exit = %d, want 7", code)
	}
	if m.Regs[RegSP] != int32(1<<16) {
		t.Errorf("sp not restored: %d", m.Regs[RegSP])
	}
}

func TestInterpMemoryAndGlobals(t *testing.T) {
	p := &Program{
		Globals: []GlobalData{{Name: "msg", Addr: 16, Size: 6, Init: []byte("hey\x00")}},
		Code: []Instr{
			{Op: LDI, Rd: RegArg0, Imm: 16},
			{Op: TRAP, Imm: TrapPuts},
			{Op: LDB, Rd: 4, Rs1: 13, Imm: 16}, // 'h'
			{Op: MOV, Rd: RegArg0, Rs1: 4},
			{Op: TRAP, Imm: TrapExit},
		},
	}
	var out bytes.Buffer
	m := NewMachine(p, 1<<16, &out)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "hey\n" {
		t.Errorf("output = %q", out.String())
	}
	if code != 'h' {
		t.Errorf("exit = %d, want %d", code, 'h')
	}
}

func TestInterpSignedByteLoad(t *testing.T) {
	p := &Program{
		Globals: []GlobalData{{Name: "b", Addr: 16, Size: 1, Init: []byte{0xFF}}},
		Code: []Instr{
			{Op: LDB, Rd: RegArg0, Rs1: 13, Imm: 16},
			{Op: TRAP, Imm: TrapExit},
		},
	}
	m := NewMachine(p, 1<<16, nil)
	code, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != -1 {
		t.Errorf("sign extension: exit = %d, want -1", code)
	}
}

func TestInterpFaults(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
		want error
	}{
		{"div0", []Instr{{Op: LDI, Rd: 4, Imm: 1}, {Op: DIV, Rd: 4, Rs1: 4, Rs2: 5}}, ErrDivByZero},
		{"rem0", []Instr{{Op: REM, Rd: 4, Rs1: 4, Rs2: 5}}, ErrDivByZero},
		{"oob-load", []Instr{{Op: LDI, Rd: 4, Imm: -8}, {Op: LDW, Rd: 4, Rs1: 4}}, ErrMemFault},
		{"oob-store", []Instr{{Op: LDI, Rd: 4, Imm: 1 << 30}, {Op: STW, Rs1: 4, Rs2: 4}}, ErrMemFault},
		{"run-off-end", []Instr{{Op: LDI, Rd: 4, Imm: 0}}, ErrBadPC},
		{"bad-jump", []Instr{{Op: JMP, Target: -5}}, ErrBadPC},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMachine(&Program{Code: c.code}, 1<<16, nil)
			_, err := m.Run(100)
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestInterpStepLimit(t *testing.T) {
	p := &Program{Code: []Instr{{Op: JMP, Target: 0}}}
	m := NewMachine(p, 1<<16, nil)
	_, err := m.Run(50)
	if !errors.Is(err, ErrOutOfSteps) {
		t.Errorf("err = %v, want ErrOutOfSteps", err)
	}
}

func TestInterpTrace(t *testing.T) {
	var pcs []int32
	m := NewMachine(handProgram(), 1<<16, nil)
	m.Trace = func(pc int32) { pcs = append(pcs, pc) }
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 7 || pcs[0] != 0 || pcs[6] != 6 {
		t.Errorf("trace = %v", pcs)
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		ins  Instr
		want string
	}{
		{Instr{Op: LDW, Rd: 0, Rs1: RegSP, Imm: 4}, "ld.iw n0,4(sp)"},
		{Instr{Op: STW, Rs1: RegSP, Rs2: RegRA, Imm: 20}, "st.iw ra,20(sp)"},
		{Instr{Op: MOV, Rd: 4, Rs1: 0}, "mov.i n4,n0"},
		{Instr{Op: BLEI, Rs1: 4, Imm: 0, Target: 56}, "blei.i n4,0,$L56"},
		{Instr{Op: ENTER, Imm: 24}, "enter sp,sp,24"},
		{Instr{Op: EPI, Imm: 24}, "epi sp,sp,24"},
		{Instr{Op: ADD, Rd: 0, Rs1: 4, Rs2: 5}, "add.i n0,n4,n5"},
		{Instr{Op: TRAP, Imm: TrapPuts}, "trap puts"},
		{Instr{Op: RJR, Rs1: RegRA}, "rjr ra"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := handProgram()
	p.Funcs = []FuncInfo{{Name: "main", Entry: 0, End: len(p.Code)}}
	if p.Func("main") == nil || p.Func("x") != nil {
		t.Error("Func lookup wrong")
	}
	d := p.Disassemble()
	if !strings.Contains(d, "main:") || !strings.Contains(d, "mul.i") {
		t.Errorf("disassembly:\n%s", d)
	}
}

func TestBlockStarts(t *testing.T) {
	p := &Program{Code: []Instr{
		{Op: LDI, Rd: 4, Imm: 0},
		{Op: BEQI, Rs1: 4, Imm: 0, Target: 3},
		{Op: LDI, Rd: 5, Imm: 1},
		{Op: HALT},
	}}
	p.Funcs = []FuncInfo{{Name: "main", Entry: 0, End: 4}}
	p.ComputeBlockStarts()
	want := map[int]bool{0: true, 2: true, 3: true}
	got := map[int]bool{}
	for _, b := range p.BlockStarts {
		got[b] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing block start %d: %v", k, p.BlockStarts)
		}
	}
}

func TestOpcodeMetadata(t *testing.T) {
	for op := Opcode(1); op < numOpcodes; op++ {
		if op.Name() == "" || op.Name() == "bad" {
			t.Errorf("op %d has no name", op)
		}
	}
	if !BLEI.IsBranch() || !BLEI.IsImmBranch() || BLE.IsImmBranch() {
		t.Error("branch classification wrong")
	}
	for _, op := range []Opcode{JMP, CALL, RJR, EPI, HALT, BEQ} {
		if !op.EndsBlock() {
			t.Errorf("%s should end a block", op.Name())
		}
	}
	if ADD.EndsBlock() {
		t.Error("add should not end a block")
	}
	if RegName(RegSP) != "sp" || RegName(RegRA) != "ra" || RegName(3) != "n3" {
		t.Error("RegName wrong")
	}
	for _, name := range []string{"putint", "putchar", "puts", "exit"} {
		id, ok := TrapByName(name)
		if !ok || TrapName(id) != name {
			t.Errorf("trap round trip failed for %s", name)
		}
	}
	if _, ok := TrapByName("nope"); ok {
		t.Error("unknown trap resolved")
	}
}
