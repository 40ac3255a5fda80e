// Package ir defines the lcc-style tree intermediate representation the
// wire-format compressor consumes, mirroring the operator vocabulary in
// the paper's §3 example (ASGNI, ADDRLP8, INDIRI, CNSTC, ...).
//
// Trees are statements executed in order within a function. Square
// brackets in the textual form enclose literal operands, and — following
// the paper — the base intermediate code "has been augmented with a few
// operators with the suffixes 8 and 16 to flag literals that fit in
// eight or sixteen bits".
package ir

import "fmt"

// Op identifies a tree operator. The type suffix follows lcc: I =
// 32-bit int, C = 8-bit char, S = 16-bit short literal, P = pointer,
// V = void.
type Op uint8

// Operator set. The order is part of the wire format (opcode bytes),
// so new operators must be appended.
const (
	OpInvalid Op = iota

	// Constants. CNSTC/CNSTS are the paper's 8/16-bit-flagged variants.
	CNSTC // 8-bit integer constant
	CNSTS // 16-bit integer constant
	CNSTI // 32-bit integer constant

	// Addressing. The 8-suffixed forms flag frame offsets that fit in
	// eight bits, exactly as in the paper's salt() example (ADDRLP8[72]).
	ADDRLP  // address of local, literal = frame offset
	ADDRLP8 // address of local, offset fits in 8 bits
	ADDRFP  // address of parameter, literal = param offset
	ADDRFP8 // address of parameter, offset fits in 8 bits
	ADDRGP  // address of global, name literal

	// Memory access.
	INDIRI // load 32-bit int through address kid
	INDIRC // load 8-bit char through address kid
	ASGNI  // store kid2 (int) through address kid1
	ASGNC  // store kid2 (char) through address kid1

	// Integer arithmetic and bitwise operators.
	ADDI
	SUBI
	MULI
	DIVI
	MODI
	BANDI
	BORI
	BXORI
	LSHI
	RSHI
	NEGI
	BCOMI

	// Conversions.
	CVCI // char -> int (sign extend)
	CVIC // int -> char (truncate)

	// Compare-and-branch: branch to label literal if relation holds.
	EQI
	NEI
	LTI
	LEI
	GTI
	GEI

	// Control flow.
	JUMPV  // unconditional jump to label literal
	LABELV // label definition, literal = label id
	ARGI   // push int argument for the next call
	CALLI  // call through address kid, yields int
	CALLV  // call through address kid, no value
	RETI   // return int value (kid)
	RETV   // return void

	numOps
)

// NumOps reports the number of defined operators (for table sizing).
const NumOps = int(numOps)

// LitKind describes what kind of literal operand an operator carries.
type LitKind uint8

// Literal operand kinds.
const (
	LitNone LitKind = iota
	LitInt          // integer literal (constant value, frame offset, or label)
	LitName         // symbolic name (global)
)

type opInfo struct {
	name  string
	arity int
	lit   LitKind
}

// opTable covers every byte value, so lookups by an Op need no bounds
// check; undefined operators have arity 0 and no literal.
var opTable = [256]opInfo{
	OpInvalid: {"INVALID", 0, LitNone},
	CNSTC:     {"CNSTC", 0, LitInt},
	CNSTS:     {"CNSTS", 0, LitInt},
	CNSTI:     {"CNSTI", 0, LitInt},
	ADDRLP:    {"ADDRLP", 0, LitInt},
	ADDRLP8:   {"ADDRLP8", 0, LitInt},
	ADDRFP:    {"ADDRFP", 0, LitInt},
	ADDRFP8:   {"ADDRFP8", 0, LitInt},
	ADDRGP:    {"ADDRGP", 0, LitName},
	INDIRI:    {"INDIRI", 1, LitNone},
	INDIRC:    {"INDIRC", 1, LitNone},
	ASGNI:     {"ASGNI", 2, LitNone},
	ASGNC:     {"ASGNC", 2, LitNone},
	ADDI:      {"ADDI", 2, LitNone},
	SUBI:      {"SUBI", 2, LitNone},
	MULI:      {"MULI", 2, LitNone},
	DIVI:      {"DIVI", 2, LitNone},
	MODI:      {"MODI", 2, LitNone},
	BANDI:     {"BANDI", 2, LitNone},
	BORI:      {"BORI", 2, LitNone},
	BXORI:     {"BXORI", 2, LitNone},
	LSHI:      {"LSHI", 2, LitNone},
	RSHI:      {"RSHI", 2, LitNone},
	NEGI:      {"NEGI", 1, LitNone},
	BCOMI:     {"BCOMI", 1, LitNone},
	CVCI:      {"CVCI", 1, LitNone},
	CVIC:      {"CVIC", 1, LitNone},
	EQI:       {"EQI", 2, LitInt},
	NEI:       {"NEI", 2, LitInt},
	LTI:       {"LTI", 2, LitInt},
	LEI:       {"LEI", 2, LitInt},
	GTI:       {"GTI", 2, LitInt},
	GEI:       {"GEI", 2, LitInt},
	JUMPV:     {"JUMPV", 0, LitInt},
	LABELV:    {"LABELV", 0, LitInt},
	ARGI:      {"ARGI", 1, LitNone},
	CALLI:     {"CALLI", 1, LitNone},
	CALLV:     {"CALLV", 1, LitNone},
	RETI:      {"RETI", 1, LitNone},
	RETV:      {"RETV", 0, LitNone},
}

// String returns the lcc-style operator name.
func (op Op) String() string {
	if op >= numOps {
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Arity reports the number of subtree operands.
func (op Op) Arity() int { return opTable[op].arity }

// Lit reports the kind of literal operand the operator carries.
func (op Op) Lit() LitKind { return opTable[op].lit }

// Valid reports whether op is a defined operator.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

// IsBranch reports whether op is a compare-and-branch operator.
func (op Op) IsBranch() bool { return op >= EQI && op <= GEI }

// OpByName resolves an operator name; ok is false for unknown names.
func OpByName(name string) (Op, bool) {
	for op := Op(1); op < numOps; op++ {
		if opTable[op].name == name {
			return op, true
		}
	}
	return OpInvalid, false
}
