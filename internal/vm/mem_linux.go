package vm

import "syscall"

// mapMem maps n bytes of private anonymous memory, or returns nil if
// the kernel refuses. Huge pages are turned off for the range: on a
// host with transparent huge pages set to "always", the first touch of
// a stack or data page would otherwise fault in and zero 2 MiB.
func mapMem(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE) // advice only
	return b
}

// unmapMem unmaps what mapMem returned. munmap fails only on a range
// that was never mapped, which nothing here can pass.
func unmapMem(b []byte) { _ = syscall.Munmap(b) }

// zeroMem drops b's pages; private anonymous pages read back as zero.
// madvise rounds the length up to a whole page, which stays inside the
// mapping.
func zeroMem(b []byte) {
	if syscall.Madvise(b, syscall.MADV_DONTNEED) != nil {
		clear(b)
	}
}
