// Package brisc implements BRISC ("Byte-coded RISC"), the paper's
// interpretable compressed code format (§4).
//
// BRISC packs OmniVM RISC code into a byte-aligned stream of
// dictionary-coded instruction patterns. The dictionary starts from the
// base instruction set and grows by operand specialization (burning a
// literal field value into an opcode) and opcode combination (fusing
// two adjacent instruction patterns), selected greedily by benefit
// B = P − W, K best candidates per pass. Pattern opcodes are encoded
// through an order-1 semi-static Markov model so every opcode fits in
// one byte, with a dedicated context at basic-block starts keeping the
// stream interpretable and randomly addressable at block granularity.
//
// The package provides the compressor, the serialized object format,
// an in-place interpreter, and the fast "JIT" translator back to
// directly executable VM code.
package brisc

import (
	"fmt"
	"strings"

	"repro/internal/vm"
)

// PatInstr is one instruction within a pattern: an opcode plus, for
// each operand field, either a wildcard or a burned-in value.
type PatInstr struct {
	Op    vm.Opcode
	Fixed []bool  // per field of Op.Fields()
	Val   []int32 // burned-in value where Fixed
}

// Pattern is a dictionary entry: one or more instructions (more than
// one after opcode combination).
type Pattern struct {
	Seq []PatInstr
}

// basePattern returns the all-wildcard pattern for an opcode — the
// paper's "base instruction set" entries like "ld.iw *,*(*)".
func basePattern(op vm.Opcode) Pattern {
	n := len(op.Fields())
	return Pattern{Seq: []PatInstr{{
		Op:    op,
		Fixed: make([]bool, n),
		Val:   make([]int32, n),
	}}}
}

// clonePattern deep-copies p.
func clonePattern(p Pattern) Pattern {
	out := Pattern{Seq: make([]PatInstr, len(p.Seq))}
	for i, pi := range p.Seq {
		out.Seq[i] = PatInstr{
			Op:    pi.Op,
			Fixed: append([]bool(nil), pi.Fixed...),
			Val:   append([]int32(nil), pi.Val...),
		}
	}
	return out
}

// specialize returns p with field fi of instruction ii fixed to v.
func specialize(p Pattern, ii, fi int, v int32) Pattern {
	out := clonePattern(p)
	out.Seq[ii].Fixed[fi] = true
	out.Seq[ii].Val[fi] = v
	return out
}

// combine concatenates two patterns (opcode combination).
func combine(a, b Pattern) Pattern {
	out := Pattern{Seq: make([]PatInstr, 0, len(a.Seq)+len(b.Seq))}
	out.Seq = append(out.Seq, clonePattern(a).Seq...)
	out.Seq = append(out.Seq, clonePattern(b).Seq...)
	return out
}

// key returns a canonical textual form of the pattern. It exists for
// debugging and test comparisons only; dictionary dedupe goes through
// patternHash/patternEqual, which never allocate.
func (p Pattern) key() string {
	var sb strings.Builder
	for _, pi := range p.Seq {
		fmt.Fprintf(&sb, "%d[", pi.Op)
		for f := range pi.Fixed {
			if pi.Fixed[f] {
				fmt.Fprintf(&sb, "%d=%d,", f, pi.Val[f])
			}
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// patternHash folds the pattern's structural identity (opcodes plus
// fixed-field assignments) into an FNV-1a hash. Collisions are resolved
// by patternEqual, so the hash only needs to be well-distributed.
func patternHash(p Pattern) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	for _, pi := range p.Seq {
		mix(uint64(pi.Op))
		for f, fx := range pi.Fixed {
			if fx {
				mix(uint64(f) + 1)
				mix(uint64(uint32(pi.Val[f])))
			}
		}
		mix(0xFF)
	}
	return h
}

// patternEqual reports structural identity: same opcode sequence with
// the same fields fixed to the same values.
func patternEqual(a, b Pattern) bool {
	if len(a.Seq) != len(b.Seq) {
		return false
	}
	for i, pa := range a.Seq {
		pb := b.Seq[i]
		if pa.Op != pb.Op || len(pa.Fixed) != len(pb.Fixed) {
			return false
		}
		for f, fx := range pa.Fixed {
			if fx != pb.Fixed[f] {
				return false
			}
			if fx && pa.Val[f] != pb.Val[f] {
				return false
			}
		}
	}
	return true
}

// String renders the pattern in the paper's bracket syntax, e.g.
// <[ld.iw n0,*(*)],[mov.i *,*]>.
func (p Pattern) String() string {
	var parts []string
	for _, pi := range p.Seq {
		var ops []string
		for f := range pi.Fixed {
			if pi.Fixed[f] {
				if pi.Op.Fields()[f] == vm.FReg {
					ops = append(ops, vm.RegName(uint8(pi.Val[f])))
				} else {
					ops = append(ops, fmt.Sprint(pi.Val[f]))
				}
			} else {
				ops = append(ops, "*")
			}
		}
		parts = append(parts, "["+pi.Op.Name()+" "+strings.Join(ops, ",")+"]")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// numUnfixed counts wildcard fields.
func (p Pattern) numUnfixed() int {
	n := 0
	for _, pi := range p.Seq {
		for _, fx := range pi.Fixed {
			if !fx {
				n++
			}
		}
	}
	return n
}

// fieldAt extracts operand field fi (in Fields() order) of an
// instruction, returning ErrCorrupt when fi is out of range. Use this
// on the Parse/decode path, where the field index may derive from
// untrusted input.
func fieldAt(ins vm.Instr, fi int) (int32, error) {
	fields := ins.Op.Fields()
	if fi < 0 || fi >= len(fields) {
		return 0, fmt.Errorf("%w: field %d out of range for %s", ErrCorrupt, fi, ins.Op.Name())
	}
	switch fields[fi] {
	case vm.FImm:
		return ins.Imm, nil
	case vm.FTgt:
		return ins.Target, nil
	default:
		return int32(regField(ins, regSlot(ins.Op, fi))), nil
	}
}

// getField is fieldAt for encoder-internal callers, where an
// out-of-range index is a programming bug, not bad input — it panics
// rather than returning an error. Decode paths must use fieldAt.
func getField(ins vm.Instr, fi int) int32 {
	v, err := fieldAt(ins, fi)
	if err != nil {
		panic(fmt.Sprintf("brisc: field %d out of range for %s", fi, ins.Op.Name()))
	}
	return v
}

// setField writes operand field fi of an instruction.
func setField(ins *vm.Instr, fi int, v int32) {
	putOperand(ins, fieldSlot(ins.Op, fi), v)
}

// operandField names the vm.Instr field an operand field is stored in.
type operandField uint8

const (
	inRd operandField = iota
	inRs1
	inRs2
	inImm
	inTarget
)

// fieldSlot maps operand field fi of op to the Instr field that holds
// it: the register families follow regField's convention.
func fieldSlot(op vm.Opcode, fi int) operandField {
	switch op.Fields()[fi] {
	case vm.FImm:
		return inImm
	case vm.FTgt:
		return inTarget
	}
	n := regSlot(op, fi)
	switch op {
	case vm.LDW, vm.LDB, vm.ADDI, vm.MOV, vm.NEG, vm.NOT:
		return [2]operandField{inRd, inRs1}[n]
	case vm.STW, vm.STB:
		return [2]operandField{inRs2, inRs1}[n]
	case vm.LDI:
		return inRd
	case vm.RJR:
		return inRs1
	}
	if op.IsBranch() {
		if op.IsImmBranch() {
			return inRs1
		}
		return [2]operandField{inRs1, inRs2}[n]
	}
	return [3]operandField{inRd, inRs1, inRs2}[n]
}

// putOperand stores v in field f of ins; a register keeps v's low byte.
func putOperand(ins *vm.Instr, f operandField, v int32) {
	switch f {
	case inRd:
		ins.Rd = uint8(v)
	case inRs1:
		ins.Rs1 = uint8(v)
	case inRs2:
		ins.Rs2 = uint8(v)
	case inImm:
		ins.Imm = v
	default:
		ins.Target = v
	}
}

// regSlot counts which register operand (0-based) field fi is.
func regSlot(op vm.Opcode, fi int) int {
	n := 0
	for j, f := range op.Fields() {
		if j == fi {
			return n
		}
		if f == vm.FReg {
			n++
		}
	}
	return n
}

// regField maps register slot n to the Instr struct field per family
// (same convention as the assembler syntax order).
func regField(ins vm.Instr, n int) uint8 {
	switch ins.Op {
	case vm.LDW, vm.LDB:
		return [2]uint8{ins.Rd, ins.Rs1}[n]
	case vm.STW, vm.STB:
		return [2]uint8{ins.Rs2, ins.Rs1}[n]
	case vm.LDI:
		return ins.Rd
	case vm.ADDI, vm.MOV, vm.NEG, vm.NOT:
		return [2]uint8{ins.Rd, ins.Rs1}[n]
	case vm.RJR:
		return ins.Rs1
	default:
		if ins.Op.IsBranch() {
			if ins.Op.IsImmBranch() {
				return ins.Rs1
			}
			return [2]uint8{ins.Rs1, ins.Rs2}[n]
		}
		return [3]uint8{ins.Rd, ins.Rs1, ins.Rs2}[n]
	}
}

// matches reports whether the pattern matches the concrete instruction
// sequence (same opcodes, fixed fields equal).
func (p Pattern) matches(instrs []vm.Instr) bool {
	if len(instrs) != len(p.Seq) {
		return false
	}
	for i, pi := range p.Seq {
		if instrs[i].Op != pi.Op {
			return false
		}
		for f, fx := range pi.Fixed {
			if fx && getField(instrs[i], f) != pi.Val[f] {
				return false
			}
		}
	}
	return true
}

// extract returns the unfixed field values of instrs under p, in
// (instruction, field) order.
func (p Pattern) extract(instrs []vm.Instr) []int32 {
	return p.appendExtract(nil, instrs)
}

// appendExtract appends the unfixed field values of instrs under p to
// dst, so hot callers can extract into reusable scratch.
func (p Pattern) appendExtract(dst []int32, instrs []vm.Instr) []int32 {
	for i, pi := range p.Seq {
		for f, fx := range pi.Fixed {
			if !fx {
				dst = append(dst, getField(instrs[i], f))
			}
		}
	}
	return dst
}

// matchesPair reports whether the pattern matches the logical
// concatenation a ++ b without materializing it.
func (p Pattern) matchesPair(a, b []vm.Instr) bool {
	if len(a)+len(b) != len(p.Seq) {
		return false
	}
	for i, pi := range p.Seq {
		ins := instrAt(a, b, i)
		if ins.Op != pi.Op {
			return false
		}
		for f, fx := range pi.Fixed {
			if fx && getField(ins, f) != pi.Val[f] {
				return false
			}
		}
	}
	return true
}

// instrAt indexes the logical concatenation a ++ b.
func instrAt(a, b []vm.Instr, i int) vm.Instr {
	if i < len(a) {
		return a[i]
	}
	return b[i-len(a)]
}

// encodedSizeInstrs is encodedSize over the values p would extract from
// instrs, computed without building the value slice.
func (p Pattern) encodedSizeInstrs(instrs []vm.Instr) int {
	n := 0
	for i, pi := range p.Seq {
		fields := pi.Op.Fields()
		for f, fx := range pi.Fixed {
			if fx {
				continue
			}
			if fields[f] == vm.FReg {
				n++
			} else {
				n += 1 + nibblesForValue(getField(instrs[i], f))
			}
		}
	}
	return 1 + (n+1)/2
}

// encodedSizePair is encodedSizeInstrs over the logical concatenation
// a ++ b.
func (p Pattern) encodedSizePair(a, b []vm.Instr) int {
	n := 0
	for i, pi := range p.Seq {
		ins := instrAt(a, b, i)
		fields := pi.Op.Fields()
		for f, fx := range pi.Fixed {
			if fx {
				continue
			}
			if fields[f] == vm.FReg {
				n++
			} else {
				n += 1 + nibblesForValue(getField(ins, f))
			}
		}
	}
	return 1 + (n+1)/2
}

// ---- operand nibble encoding ----

// nibblesForValue returns how many payload nibbles a value needs
// (0 for value 0; otherwise the smallest n in 1..8 whose signed 4n-bit
// range holds it).
func nibblesForValue(v int32) int {
	if v == 0 {
		return 0
	}
	for n := 1; n < 8; n++ {
		bits := uint(4 * n)
		min := -(int32(1) << (bits - 1))
		max := int32(1)<<(bits-1) - 1
		if v >= min && v <= max {
			return n
		}
	}
	return 8
}

// operandNibbles computes the operand payload size (in nibbles) of
// encoding vals for the unfixed fields of p: registers cost one nibble;
// immediates and targets cost one size-code nibble plus their payload.
func (p Pattern) operandNibbles(vals []int32) int {
	n := 0
	vi := 0
	for _, pi := range p.Seq {
		fields := pi.Op.Fields()
		for f, fx := range pi.Fixed {
			if fx {
				continue
			}
			if fields[f] == vm.FReg {
				n++
			} else {
				n += 1 + nibblesForValue(vals[vi])
			}
			vi++
		}
	}
	return n
}

// encodedSize returns the byte size of one unit encoded with p: one
// opcode byte plus byte-padded operand nibbles. (Escape bytes for
// overfull Markov tables are rare and ignored by this estimate.)
func (p Pattern) encodedSize(vals []int32) int {
	return 1 + (p.operandNibbles(vals)+1)/2
}
