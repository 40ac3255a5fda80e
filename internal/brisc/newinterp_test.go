package brisc

import (
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
