//go:build race

package difftest

// raceEnabled trims the kernels to fib: a kernel runs on one
// goroutine, so the race detector only slows it down.
const raceEnabled = true
