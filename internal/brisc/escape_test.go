package brisc

import (
	"testing"

	"repro/internal/vm"
)

// TestDecodeUnitEscape exercises the escape path used when a pattern is
// not among a context's 255 most frequent followers: opcode byte 255
// followed by a uvarint pattern id.
func TestDecodeUnitEscape(t *testing.T) {
	obj := &Object{}
	for op := 0; op < vm.NumOpcodes; op++ {
		obj.Dict = append(obj.Dict, basePattern(vm.Opcode(op)))
	}
	obj.Contexts = make([][]int, len(obj.Dict)+1)
	// Context 0 lists only HALT; LDI must escape.
	obj.Contexts[0] = []int{int(vm.HALT)}

	// Hand-encode: escape byte, pattern id for LDI, operands
	// rd=5 (1 nibble), imm=3 (size nibble 1 + payload nibble 3).
	code := []byte{255}
	code = appendUvarint(code, uint64(vm.LDI))
	code = append(code, 0x51, 0x30)
	obj.Code = code
	obj.Blocks = []int32{0}

	var got []vm.Instr
	pid, next, err := obj.decodeUnitIn(&got, obj.Code, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pid != int(vm.LDI) {
		t.Errorf("pid = %d, want %d", pid, int(vm.LDI))
	}
	if int(next) != len(code) {
		t.Errorf("next = %d, want %d", next, len(code))
	}
	want := vm.Instr{Op: vm.LDI, Rd: 5, Imm: 3}
	if len(got) != 1 || got[0] != want {
		t.Errorf("decoded %+v, want [%+v]", got, want)
	}
}

// TestDecodeUnitTableIndex exercises the normal table-indexed path with
// a non-block-start context.
func TestDecodeUnitTableIndex(t *testing.T) {
	obj := &Object{}
	for op := 0; op < vm.NumOpcodes; op++ {
		obj.Dict = append(obj.Dict, basePattern(vm.Opcode(op)))
	}
	obj.Contexts = make([][]int, len(obj.Dict)+1)
	ldiCtx := int(vm.LDI) + 1
	obj.Contexts[ldiCtx] = []int{int(vm.HALT), int(vm.MOV)}

	// In LDI's context, index 1 selects MOV; operands rd=2, rs=3.
	obj.Code = []byte{1, 0x23}
	var code []vm.Instr
	pid, _, err := obj.decodeUnitIn(&code, obj.Code, 0, ldiCtx)
	if err != nil {
		t.Fatal(err)
	}
	want := vm.Instr{Op: vm.MOV, Rd: 2, Rs1: 3}
	if pid != int(vm.MOV) || len(code) != 1 || code[0] != want {
		t.Errorf("pid=%d decoded %+v, want [%+v]", pid, code, want)
	}
}

func TestDecodeUnitErrors(t *testing.T) {
	obj := &Object{}
	for op := 0; op < vm.NumOpcodes; op++ {
		obj.Dict = append(obj.Dict, basePattern(vm.Opcode(op)))
	}
	obj.Contexts = make([][]int, len(obj.Dict)+1)
	obj.Contexts[0] = []int{int(vm.HALT)}

	// Offset out of range.
	if _, _, err := obj.decodeUnitIn(nil, obj.Code, 99, 0); err == nil {
		t.Error("bad offset accepted")
	}
	// Opcode index beyond the context table.
	obj.Code = []byte{7}
	if _, _, err := obj.decodeUnitIn(nil, obj.Code, 0, 0); err == nil {
		t.Error("out-of-table index accepted")
	}
	// Escape with a bogus pattern id.
	obj.Code = appendUvarint([]byte{255}, 99999)
	if _, _, err := obj.decodeUnitIn(nil, obj.Code, 0, 0); err == nil {
		t.Error("bogus escape pattern id accepted")
	}
	// Truncated operand nibbles.
	obj.Contexts[0] = []int{int(vm.LDI)}
	obj.Code = []byte{0} // LDI needs operand nibbles that are missing
	if _, _, err := obj.decodeUnitIn(nil, obj.Code, 0, 0); err == nil {
		t.Error("truncated operands accepted")
	}
	// Size nibble too large (>8).
	obj.Code = []byte{0, 0x59, 0xFF}
	if _, _, err := obj.decodeUnitIn(nil, obj.Code, 0, 0); err == nil {
		t.Error("oversized size nibble accepted")
	}
}
