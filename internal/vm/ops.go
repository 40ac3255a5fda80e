// Package vm implements the OmniVM-like register virtual machine the
// BRISC experiments run on: a RISC instruction set with 16 integer
// registers (two of which serve as sp and ra, following the paper's
// examples "enter sp,sp,24" and "spill.i ra,20(sp)"), macro
// instructions for function entry/exit, a disassembler, and
// an interpreter over a flat little-endian memory.
package vm

import "fmt"

// Register indices. r0..r11 are general; r0..r3 also carry the first
// four arguments and r0 the return value. R12 is the code generator's
// reserved scratch register; r13 is unassigned.
const (
	RegArg0 = 0
	RegTmp  = 12 // codegen scratch, never allocated to expressions
	RegSP   = 14
	RegRA   = 15
	NumRegs = 16
)

// RegName renders a register the way the paper writes them.
func RegName(r uint8) string {
	switch r {
	case RegSP:
		return "sp"
	case RegRA:
		return "ra"
	default:
		return fmt.Sprintf("n%d", r)
	}
}

// Opcode identifies a VM instruction.
type Opcode uint8

// Instruction set. LDI is the load-immediate primitive the de-tuned
// abstract machines keep; ADDI and the B..I compare-immediate branches
// are the "ad hoc" immediate forms the design-space study removes; LDW/
// LDB/STW/STB carry register-displacement addressing, the other feature
// that study removes.
const (
	BAD Opcode = iota

	// Memory: register-displacement addressing.
	LDW // rd <- mem32[rs1+imm]
	LDB // rd <- sign-extend mem8[rs1+imm]
	STW // mem32[rs1+imm] <- rs2
	STB // mem8[rs1+imm] <- low8(rs2)

	// Immediates.
	LDI  // rd <- imm (the primitive every variant keeps)
	ADDI // rd <- rs1 + imm

	// Register-register ALU.
	MOV
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SHL
	SHR // arithmetic shift right
	NEG
	NOT

	// Compare-and-branch, register-register.
	BEQ
	BNE
	BLT
	BLE
	BGT
	BGE

	// Compare-and-branch, register-immediate ("ble.i n4,0,$L56").
	BEQI
	BNEI
	BLTI
	BLEI
	BGTI
	BGEI

	// Control.
	JMP  // pc <- imm
	CALL // ra <- pc+1; pc <- imm (resolved function entry)
	RJR  // pc <- rs1 ("rjr ra")

	// Macro-instructions.
	ENTER // sp -= imm (function prologue frame allocation)
	EXIT  // sp += imm
	EPI   // ra <- mem32[sp+imm-4]; sp += imm; pc <- ra (paper's epi)

	// Runtime traps (builtins); imm selects the call, args in r0.
	TRAP

	// HALT stops the machine (end of program).
	HALT

	numOpcodes
)

// NumOpcodes is the size of the base opcode space.
const NumOpcodes = int(numOpcodes)

// FieldKind describes one operand field of an instruction pattern; the
// BRISC compressor specializes and packs fields by kind.
type FieldKind uint8

// Operand field kinds.
const (
	FReg FieldKind = iota // 4-bit register number
	FImm                  // immediate (displacement, constant, frame size)
	FTgt                  // code target (branch/jump/call); not specialized
)

type opcodeInfo struct {
	name   string
	fields []FieldKind
	// fieldNames, for disassembly ordering: fields appear in the order
	// rd, rs1, rs2, imm as applicable; the assembler syntax knows how to
	// print each opcode.
}

var opcodeTable = [numOpcodes]opcodeInfo{
	BAD:   {"bad", nil},
	LDW:   {"ld.iw", []FieldKind{FReg, FImm, FReg}}, // ld.iw rd, imm(rs1)
	LDB:   {"ld.ib", []FieldKind{FReg, FImm, FReg}},
	STW:   {"st.iw", []FieldKind{FReg, FImm, FReg}}, // st.iw rs2, imm(rs1)
	STB:   {"st.ib", []FieldKind{FReg, FImm, FReg}},
	LDI:   {"ldi", []FieldKind{FReg, FImm}},
	ADDI:  {"addi.i", []FieldKind{FReg, FReg, FImm}},
	MOV:   {"mov.i", []FieldKind{FReg, FReg}},
	ADD:   {"add.i", []FieldKind{FReg, FReg, FReg}},
	SUB:   {"sub.i", []FieldKind{FReg, FReg, FReg}},
	MUL:   {"mul.i", []FieldKind{FReg, FReg, FReg}},
	DIV:   {"div.i", []FieldKind{FReg, FReg, FReg}},
	REM:   {"rem.i", []FieldKind{FReg, FReg, FReg}},
	AND:   {"and.i", []FieldKind{FReg, FReg, FReg}},
	OR:    {"or.i", []FieldKind{FReg, FReg, FReg}},
	XOR:   {"xor.i", []FieldKind{FReg, FReg, FReg}},
	SHL:   {"shl.i", []FieldKind{FReg, FReg, FReg}},
	SHR:   {"shr.i", []FieldKind{FReg, FReg, FReg}},
	NEG:   {"neg.i", []FieldKind{FReg, FReg}},
	NOT:   {"not.i", []FieldKind{FReg, FReg}},
	BEQ:   {"beq.i", []FieldKind{FReg, FReg, FTgt}},
	BNE:   {"bne.i", []FieldKind{FReg, FReg, FTgt}},
	BLT:   {"blt.i", []FieldKind{FReg, FReg, FTgt}},
	BLE:   {"ble.i", []FieldKind{FReg, FReg, FTgt}},
	BGT:   {"bgt.i", []FieldKind{FReg, FReg, FTgt}},
	BGE:   {"bge.i", []FieldKind{FReg, FReg, FTgt}},
	BEQI:  {"beqi.i", []FieldKind{FReg, FImm, FTgt}},
	BNEI:  {"bnei.i", []FieldKind{FReg, FImm, FTgt}},
	BLTI:  {"blti.i", []FieldKind{FReg, FImm, FTgt}},
	BLEI:  {"blei.i", []FieldKind{FReg, FImm, FTgt}},
	BGTI:  {"bgti.i", []FieldKind{FReg, FImm, FTgt}},
	BGEI:  {"bgei.i", []FieldKind{FReg, FImm, FTgt}},
	JMP:   {"jmp", []FieldKind{FTgt}},
	CALL:  {"call", []FieldKind{FTgt}},
	RJR:   {"rjr", []FieldKind{FReg}},
	ENTER: {"enter", []FieldKind{FImm}},
	EXIT:  {"exit", []FieldKind{FImm}},
	EPI:   {"epi", []FieldKind{FImm}},
	TRAP:  {"trap", []FieldKind{FImm}},
	HALT:  {"halt", nil},
}

// Name returns the assembler mnemonic.
func (op Opcode) Name() string {
	if op >= numOpcodes {
		return fmt.Sprintf("op%d", uint8(op))
	}
	return opcodeTable[op].name
}

// Valid reports whether op is defined.
func (op Opcode) Valid() bool { return op > BAD && op < numOpcodes }

// Fields returns the operand field kinds in operand order.
func (op Opcode) Fields() []FieldKind {
	if op >= numOpcodes {
		return nil
	}
	return opcodeTable[op].fields
}

// IsBranch reports compare-and-branch opcodes (both forms).
func (op Opcode) IsBranch() bool { return op >= BEQ && op <= BGEI }

// IsImmBranch reports compare-immediate branches.
func (op Opcode) IsImmBranch() bool { return op >= BEQI && op <= BGEI }

// EndsBlock reports whether the instruction terminates a basic block.
func (op Opcode) EndsBlock() bool {
	return op.IsBranch() || op == JMP || op == CALL || op == RJR || op == EPI || op == HALT
}

// Trap identifiers for TRAP's immediate.
const (
	TrapPutint = iota
	TrapPutchar
	TrapPuts
	TrapExit
	NumTraps
)

// TrapName renders a trap id.
func TrapName(id int32) string {
	switch id {
	case TrapPutint:
		return "putint"
	case TrapPutchar:
		return "putchar"
	case TrapPuts:
		return "puts"
	case TrapExit:
		return "exit"
	}
	return fmt.Sprintf("trap%d", id)
}

// TrapByName resolves a builtin name to a trap id; ok is false for
// unknown names.
func TrapByName(name string) (int32, bool) {
	switch name {
	case "putint":
		return TrapPutint, true
	case "putchar":
		return TrapPutchar, true
	case "puts":
		return TrapPuts, true
	case "exit":
		return TrapExit, true
	}
	return 0, false
}
