package vm

import "runtime"

// Memory is a machine's flat, byte-addressed memory: exactly the
// requested number of bytes, zero until written. On linux it is a
// demand-zero anonymous mapping outside the Go heap (mem_linux.go), so
// allocating it zeroes nothing and a program pays only for the pages it
// touches; elsewhere it is an ordinary slice (mem_other.go).
//
// The mapping is invisible to the GC pacer, which would let thousands
// of dead machines' touched pages pile up between collections, so the
// owner calls Release as soon as it is done. A finalizer on the
// mapping's handle, reachable only through the owner, unmaps it once
// the owner is unreachable as a safety net. Mem is therefore valid only
// while its owner is reachable: hold the machine, not the slice, and
// never copy a Memory out of its owner.
type Memory struct {
	Mem []byte
	// region owns the mapping behind Mem, or is nil when Mem lives on
	// the Go heap (the fallback) or has been released.
	region *region
}

// region is the handle the safety-net finalizer hangs on. b is the
// slice mapMem returned, which is what unmapMem needs back.
type region struct{ b []byte }

func (r *region) unmap() { unmapMem(r.b) }

// MakeMemory returns n bytes of zeroed memory (n > 0): a demand-zero
// mapping where the platform has one and the mapping succeeds, a Go
// slice otherwise. len(Mem) is exactly n even though the kernel maps
// whole pages.
func MakeMemory(n int) Memory {
	b := mapMem(n)
	if b == nil {
		return Memory{Mem: make([]byte, n)}
	}
	r := &region{b: b}
	runtime.SetFinalizer(r, (*region).unmap)
	return Memory{Mem: b, region: r}
}

// zero clears memory. A mapping hands its pages back to the kernel,
// which refaults them as zero on the next touch, so only the touched
// pages cost anything; clearing the slice would fault in all of them.
func (m *Memory) zero() {
	if m.region != nil {
		zeroMem(m.region.b)
		return
	}
	clear(m.Mem)
}

// Release frees the memory at once and sets Mem to nil, so any later
// load or store is an ordinary out-of-bounds memory fault. It is
// idempotent.
func (m *Memory) Release() {
	if r := m.region; r != nil {
		runtime.SetFinalizer(r, nil)
		r.unmap()
		m.region = nil
	}
	m.Mem = nil
}
