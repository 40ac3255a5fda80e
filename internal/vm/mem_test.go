package vm_test

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/vm"
)

// fillProgram stores the word 0x5a5a5a5a at every stride-th address
// from 0 up to the last whole word below the initial SP (the top of
// memory), then halts.
func fillProgram(stride int32) *vm.Program {
	p := &vm.Program{Code: []vm.Instr{
		{Op: vm.LDI, Rd: 1, Imm: 0},
		{Op: vm.LDI, Rd: 2, Imm: 0x5a5a5a5a},
		{Op: vm.ADDI, Rd: 3, Rs1: vm.RegSP, Imm: -3},
		{Op: vm.STW, Rs1: 1, Rs2: 2},
		{Op: vm.ADDI, Rd: 1, Rs1: 1, Imm: stride},
		{Op: vm.BLT, Rs1: 1, Rs2: 3, Target: 3},
		{Op: vm.HALT},
	}}
	p.ComputeBlockStarts()
	return p
}

// TestReleaseIdempotent: Release frees memory at once, a second
// Release is a no-op, and a Run afterwards (with or without a Reset
// between) faults with ErrMemFault instead of touching unmapped memory.
func TestReleaseIdempotent(t *testing.T) {
	p := fillProgram(4096)
	m := vm.NewMachine(p, 0, nil)
	m.Release()
	m.Release()
	if m.Mem != nil {
		t.Fatalf("Mem after Release has length %d", len(m.Mem))
	}
	if _, err := m.Run(0); !errors.Is(err, vm.ErrMemFault) {
		t.Errorf("Run after Release: err %v, want ErrMemFault", err)
	}
	m.Reset()
	if _, err := m.Run(0); !errors.Is(err, vm.ErrMemFault) {
		t.Errorf("Reset+Run after Release: err %v, want ErrMemFault", err)
	}
	m.Release()
}

// statusKB reads one "Name:  N kB" line of /proc/self/status; ok is
// false where the file or the line is missing.
func statusKB(t *testing.T, name string) (kb int64, ok bool) {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), name+":"); found {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n, true
		}
	}
	return 0, false
}

// touchAll runs n machines of the default size, each storing a word in
// every page of its memory so that all of it is resident; release
// says whether each is released after its run.
func touchAll(t *testing.T, n int, release bool) {
	t.Helper()
	p := fillProgram(4096)
	for range n {
		m := vm.NewMachine(p, 0, nil)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if release {
			m.Release()
		}
	}
}

// TestReleaseBoundsRSS: 64 machines that each make all 4 MiB of their
// memory resident raise the process's peak RSS by about one machine's
// worth when each is released after its run. The GC never sees mapped
// memory, so without Release the same loop would hold every machine's
// pages until the next collection.
func TestReleaseBoundsRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("demand-zero memory is linux-only")
	}
	before, ok := statusKB(t, "VmHWM")
	if !ok {
		t.Skip("no VmHWM in /proc/self/status")
	}
	touchAll(t, 64, true)
	after, _ := statusKB(t, "VmHWM")
	if grew := after - before; grew >= 32<<10 {
		t.Errorf("VmHWM grew %d kB over 64 released machines, want < %d kB", grew, 32<<10)
	}
}

// TestUnreleasedMemoryIsReclaimed: a machine dropped without Release
// is unmapped by its finalizer once the GC finds it unreachable.
func TestUnreleasedMemoryIsReclaimed(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("demand-zero memory is linux-only")
	}
	before, ok := statusKB(t, "VmRSS")
	if !ok {
		t.Skip("no VmRSS in /proc/self/status")
	}
	const n = 8 // 32 MiB resident until the finalizers run
	touchAll(t, n, false)
	var rss int64
	for range 50 {
		runtime.GC()
		if rss, _ = statusKB(t, "VmRSS"); rss-before < 16<<10 {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("VmRSS still %d kB above the start after dropping %d touched machines", rss-before, n)
}
