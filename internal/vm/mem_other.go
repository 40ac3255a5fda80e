//go:build !linux

package vm

// Without a demand-zero mapping MakeMemory falls back to the Go heap,
// so no region exists and unmapMem and zeroMem are never called.

func mapMem(n int) []byte { return nil }

func unmapMem(b []byte) {}

func zeroMem(b []byte) {}
