package brisc

import (
	"errors"
	"testing"

	"repro/internal/vm"
)

// checkStartState asserts the interpreter's memory is zero apart from
// the globals' init bytes and its stack pointer sits at the top of
// memory.
func checkStartState(t *testing.T, what string, it *Interp) {
	t.Helper()
	want := make([]byte, len(it.Mem))
	for _, g := range it.Obj.Globals {
		copy(want[g.Addr:], g.Init)
	}
	for i := range want {
		if it.Mem[i] != want[i] {
			t.Fatalf("%s: mem[%d] = %#x, want %#x", what, i, it.Mem[i], want[i])
		}
	}
	if sp := it.Regs[vm.RegSP]; int(sp) != len(it.Mem) {
		t.Errorf("%s: sp = %d, want %d", what, sp, len(it.Mem))
	}
	if it.PC != 0 || it.unitIdx != -1 || it.Steps != 0 || it.Halted {
		t.Errorf("%s: pc %d unit %d steps %d halted %v", what, it.PC, it.unitIdx, it.Steps, it.Halted)
	}
}

// TestNewInterpStartsZeroed: a new interpreter's memory holds only the
// data segment, and Reset restores that after a run dirtied memory.
func TestNewInterpStartsZeroed(t *testing.T) {
	p := compileProg(t, "globals", `
int x = 5;
char msg[8] = "hi";
int arr[4];
int main(void) { arr[1] = x; x = 9; msg[0] = 'H'; putint(arr[1]); return 0; }`)
	obj, err := Compress(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 1<<16, nil)
	checkStartState(t, "NewInterp", it)
	if _, err := it.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := len(it.Mem) - 64; i < len(it.Mem); i++ {
		it.Mem[i] ^= 0x5A
	}
	it.Reset()
	checkStartState(t, "Reset", it)
}

// fillObject compresses a program that stores a word at every 4-byte
// address from 0 up to the last whole word below the initial SP, data
// segment included, then halts.
func fillObject(t *testing.T) *Object {
	t.Helper()
	p := &vm.Program{
		Code: []vm.Instr{
			ldi(1, 0), ldi(2, 0x5a5a5a5a),
			{Op: vm.ADDI, Rd: 3, Rs1: vm.RegSP, Imm: -3},
			{Op: vm.STW, Rs1: 1, Rs2: 2},
			{Op: vm.ADDI, Rd: 1, Rs1: 1, Imm: 4},
			{Op: vm.BLT, Rs1: 1, Rs2: 3, Target: 3},
			halt,
		},
		Globals:  []vm.GlobalData{{Name: "g", Addr: 16, Size: 8, Init: []byte{1, 2, 3}}},
		DataSize: 24,
	}
	p.ComputeBlockStarts()
	obj, err := Compress(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// fillEngines returns an interpreter of obj with memSize bytes, whole
// image and paged at one resident page.
func fillEngines(t *testing.T, obj *Object, memSize int) map[string]*Interp {
	t.Helper()
	img, err := BuildXIP(obj, XIPOptions{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	whole, paged := NewInterp(obj, memSize, nil), NewInterp(obj, memSize, nil)
	if err := paged.EnableXIP(img, 1, 0); err != nil {
		t.Fatal(err)
	}
	return map[string]*Interp{"whole": whole, "paged": paged}
}

// TestInterpResetAfterDirtyRun: after a run that writes every word of
// a memory that is not a whole number of pages, Reset leaves it zero
// apart from the re-copied data segment, whole image and paged.
func TestInterpResetAfterDirtyRun(t *testing.T) {
	const size = 4096 + 3
	for mode, it := range fillEngines(t, fillObject(t), size) {
		if _, err := it.Run(0); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(it.Mem) != size || it.Mem[size-4] != 0x5a || it.Mem[16] != 0x5a {
			t.Fatalf("%s: the run did not dirty all %d bytes of memory", mode, size)
		}
		it.Reset()
		checkStartState(t, mode+" Reset", it)
		it.Release()
	}
}

// TestInterpReleaseIdempotent: Release unmaps memory at once, a second
// Release is a no-op, and Run afterwards, with or without a Reset,
// faults with ErrMemFault, whole image and paged.
func TestInterpReleaseIdempotent(t *testing.T) {
	for mode, it := range fillEngines(t, fillObject(t), 0) {
		it.Release()
		it.Release()
		if it.Mem != nil {
			t.Fatalf("%s: Mem after Release has length %d", mode, len(it.Mem))
		}
		if _, err := it.Run(0); !errors.Is(err, ErrMemFault) {
			t.Errorf("%s: Run after Release: err %v, want ErrMemFault", mode, err)
		}
		it.Reset()
		if _, err := it.Run(0); !errors.Is(err, ErrMemFault) {
			t.Errorf("%s: Reset+Run after Release: err %v, want ErrMemFault", mode, err)
		}
	}
}
