package vm

import (
	"fmt"
	"strings"
)

// Instr is one decoded VM instruction. Operand meaning by opcode:
//
//	LDW/LDB   rd <- mem[Rs1+Imm]
//	STW/STB   mem[Rs1+Imm] <- Rs2
//	LDI       Rd <- Imm
//	ADDI      Rd <- Rs1 + Imm
//	MOV/NEG/NOT  Rd <- op(Rs1)
//	ALU       Rd <- Rs1 op Rs2
//	B..       compare Rs1 with Rs2 (or Imm), branch to Target
//	JMP/CALL  Target
//	RJR       pc <- Rs1
//	ENTER/EXIT/EPI/TRAP  Imm
//
// Target holds a code address (instruction index into the linked
// program). Branch targets are absolute after linking.
type Instr struct {
	Op     Opcode
	Rd     uint8
	Rs1    uint8
	Rs2    uint8
	Imm    int32
	Target int32
}

// FuncInfo records one function's location in the linked program.
type FuncInfo struct {
	Name  string
	Entry int // index of first instruction
	End   int // index one past the last instruction
	Frame int // total frame bytes (locals+temps+outgoing+ra)
}

// Program is a linked VM executable.
type Program struct {
	Name    string
	Code    []Instr
	Funcs   []FuncInfo
	Globals []GlobalData
	// DataSize is the total byte size of the global data segment.
	DataSize int
	// BlockStarts marks instruction indices that begin basic blocks
	// (function entries and branch targets); BRISC keeps these
	// addressable.
	BlockStarts []int
}

// GlobalData is one global's placement in the data segment.
type GlobalData struct {
	Name string
	Addr int32
	Size int
	Init []byte
}

// Func looks up a function by name.
func (p *Program) Func(name string) *FuncInfo {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i]
		}
	}
	return nil
}

// ComputeBlockStarts fills BlockStarts from the code: function entries,
// branch/jump targets, and instructions following block enders. Marks
// outside the code (a hostile Program's entries or targets) are
// dropped. The marks are counted as they are set, so BlockStarts is
// allocated at most once.
func (p *Program) ComputeBlockStarts() {
	n := len(p.Code)
	mark := make([]bool, n)
	count := 0
	set := func(i int) {
		if i >= 0 && i < n && !mark[i] {
			mark[i] = true
			count++
		}
	}
	for _, f := range p.Funcs {
		set(f.Entry)
	}
	for i, ins := range p.Code {
		switch {
		case ins.Op.IsBranch() || ins.Op == JMP:
			set(int(ins.Target))
			set(i + 1)
		case ins.Op == CALL || ins.Op == RJR || ins.Op == EPI || ins.Op == HALT:
			set(i + 1)
		}
	}
	if cap(p.BlockStarts) < count {
		p.BlockStarts = make([]int, 0, count)
	}
	p.BlockStarts = p.BlockStarts[:0]
	for i, m := range mark {
		if m {
			p.BlockStarts = append(p.BlockStarts, i)
		}
	}
}

// String disassembles one instruction using paper-style syntax.
func (ins Instr) String() string {
	switch ins.Op {
	case LDW, LDB:
		return fmt.Sprintf("%s %s,%d(%s)", ins.Op.Name(), RegName(ins.Rd), ins.Imm, RegName(ins.Rs1))
	case STW, STB:
		return fmt.Sprintf("%s %s,%d(%s)", ins.Op.Name(), RegName(ins.Rs2), ins.Imm, RegName(ins.Rs1))
	case LDI:
		return fmt.Sprintf("%s %s,%d", ins.Op.Name(), RegName(ins.Rd), ins.Imm)
	case ADDI:
		return fmt.Sprintf("%s %s,%s,%d", ins.Op.Name(), RegName(ins.Rd), RegName(ins.Rs1), ins.Imm)
	case MOV, NEG, NOT:
		return fmt.Sprintf("%s %s,%s", ins.Op.Name(), RegName(ins.Rd), RegName(ins.Rs1))
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SHL, SHR:
		return fmt.Sprintf("%s %s,%s,%s", ins.Op.Name(), RegName(ins.Rd), RegName(ins.Rs1), RegName(ins.Rs2))
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		return fmt.Sprintf("%s %s,%s,$L%d", ins.Op.Name(), RegName(ins.Rs1), RegName(ins.Rs2), ins.Target)
	case BEQI, BNEI, BLTI, BLEI, BGTI, BGEI:
		return fmt.Sprintf("%s %s,%d,$L%d", ins.Op.Name(), RegName(ins.Rs1), ins.Imm, ins.Target)
	case JMP:
		return fmt.Sprintf("%s $L%d", ins.Op.Name(), ins.Target)
	case CALL:
		return fmt.Sprintf("%s $L%d", ins.Op.Name(), ins.Target)
	case RJR:
		return fmt.Sprintf("%s %s", ins.Op.Name(), RegName(ins.Rs1))
	case ENTER, EXIT, EPI:
		return fmt.Sprintf("%s sp,sp,%d", ins.Op.Name(), ins.Imm)
	case TRAP:
		return fmt.Sprintf("%s %s", ins.Op.Name(), TrapName(ins.Imm))
	case HALT:
		return ins.Op.Name()
	default:
		return fmt.Sprintf("%s ?", ins.Op.Name())
	}
}

// Disassemble renders the whole program with function headers and
// block-start markers.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	blocks := map[int]bool{}
	for _, b := range p.BlockStarts {
		blocks[b] = true
	}
	for i, ins := range p.Code {
		for _, f := range p.Funcs {
			if f.Entry == i {
				fmt.Fprintf(&sb, "%s:\n", f.Name)
			}
		}
		marker := "  "
		if blocks[i] {
			marker = "> "
		}
		fmt.Fprintf(&sb, "%s%4d: %s\n", marker, i, ins)
	}
	return sb.String()
}
