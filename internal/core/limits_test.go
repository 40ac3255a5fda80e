package core

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/brisc"
	"repro/internal/irexec"
	"repro/internal/vm"
)

const loopSource = `int main(void) { while (1) {} return 0; }`

const recurseSource = `
int f(int n) { return f(n + 1); }
int main(void) { return f(0); }
`

// compileLoop builds the infinite-loop program used by every
// trap-on-limit test.
func compileLoop(t *testing.T) *Program {
	t.Helper()
	p, err := CompileC("loop", loopSource)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantTrap asserts err is a *TrapError matching ErrLimit for the
// given limit kind and engine.
func wantTrap(t *testing.T, err error, engine, limit string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: infinite loop terminated without error", engine)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("%s: error does not match ErrLimit: %v", engine, err)
	}
	var trap *TrapError
	if !errors.As(err, &trap) {
		t.Fatalf("%s: error is not a TrapError: %v", engine, err)
	}
	if trap.Engine != engine {
		t.Errorf("trap engine = %q, want %q", trap.Engine, engine)
	}
	if trap.Limit != limit {
		t.Errorf("%s: trap limit = %q, want %q", engine, trap.Limit, limit)
	}
	if limit == "steps" && trap.Steps == 0 {
		t.Errorf("%s: trap reports zero executed steps", engine)
	}
}

// TestStepLimitAllEngines is the acceptance check for the shared
// governor: the same infinite-loop module must terminate with a
// TrapError on every execution engine.
func TestStepLimitAllEngines(t *testing.T) {
	p := compileLoop(t)
	limits := Limits{MaxSteps: 50_000}

	np, err := p.Native()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunNative(np, io.Discard, limits)
	wantTrap(t, err, "vm", "steps")

	obj, err := p.BRISC(brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := brisc.NewInterp(obj, 0, io.Discard)
	if err := it.SetLimits(limits); err != nil {
		t.Fatal(err)
	}
	_, err = it.Run(0)
	wantTrap(t, err, "brisc", "steps")

	_, err = RunJIT(obj, io.Discard, limits)
	wantTrap(t, err, "vm", "steps")

	mc, err := irexec.NewMachine(p.Module, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.SetLimits(limits); err != nil {
		t.Fatal(err)
	}
	_, err = mc.Run(0)
	wantTrap(t, err, "irexec", "steps")
}

// TestDeadlineKillsWallClockHang verifies the polled deadline stops an
// infinite loop in wall-clock time, independent of any step budget.
func TestDeadlineKillsWallClockHang(t *testing.T) {
	p := compileLoop(t)
	np, err := p.Native()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = RunNative(np, io.Discard, Limits{}.WithTimeout(100*time.Millisecond))
	wantTrap(t, err, "vm", "deadline")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline fired after %v, expected ~100ms", elapsed)
	}
}

// TestCallDepthLimit bounds runaway recursion before it exhausts the
// VM stack.
func TestCallDepthLimit(t *testing.T) {
	p, err := CompileC("recurse", recurseSource)
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Native()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunNative(np, io.Discard, Limits{MaxCallDepth: 16})
	wantTrap(t, err, "vm", "call-depth")

	obj, err := p.BRISC(brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := brisc.NewInterp(obj, 0, io.Discard)
	if err := it.SetLimits(Limits{MaxCallDepth: 16}); err != nil {
		t.Fatal(err)
	}
	_, err = it.Run(0)
	wantTrap(t, err, "brisc", "call-depth")

	mc, err := irexec.NewMachine(p.Module, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.SetLimits(Limits{MaxCallDepth: 16}); err != nil {
		t.Fatal(err)
	}
	_, err = mc.Run(0)
	wantTrap(t, err, "irexec", "call-depth")
}

// TestLimitsDoNotPerturbValidRuns: a generous budget must leave a
// well-behaved program's result untouched.
func TestLimitsDoNotPerturbValidRuns(t *testing.T) {
	p, err := CompileC("ok", `int main(void) { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Native()
	if err != nil {
		t.Fatal(err)
	}
	code, err := RunNative(np, io.Discard, Limits{MaxSteps: 1_000_000, MaxCallDepth: 64}.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if code != 45 {
		t.Fatalf("exit code = %d, want 45", code)
	}
}

// negPutsSource hands puts the address -1.
const negPutsSource = `int main(void) { char *p; p = 0; p = p - 1; puts(p); return 0; }`

// TestNegativePutsAddressFaults: puts of a negative address must fail
// with a memory fault in every engine — the VM, BRISC whole-image and
// paged at one page, the JIT, and the IR interpreter — never index
// memory at -1 and panic.
func TestNegativePutsAddressFaults(t *testing.T) {
	p, err := CompileC("negputs", negPutsSource)
	if err != nil {
		t.Fatal(err)
	}
	np, err := p.Native()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := p.BRISC(brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := brisc.BuildXIP(obj, brisc.XIPOptions{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		want error
		run  func() (int32, error)
	}{
		{"vm", vm.ErrMemFault, func() (int32, error) { return RunNative(np, io.Discard, Limits{}) }},
		{"brisc", brisc.ErrMemFault, func() (int32, error) { return RunBRISC(obj, io.Discard, Limits{}) }},
		{"brisc-paged-1", brisc.ErrMemFault, func() (int32, error) {
			it := brisc.NewInterp(obj, 0, io.Discard)
			if err := it.EnableXIP(img, 1, 0); err != nil {
				return 0, err
			}
			return it.Run(0)
		}},
		{"jit", vm.ErrMemFault, func() (int32, error) { return RunJIT(obj, io.Discard, Limits{}) }},
		{"irexec", irexec.ErrMemFault, func() (int32, error) {
			mc, err := irexec.NewMachine(p.Module, 0, io.Discard)
			if err != nil {
				return 0, err
			}
			return mc.Run(0)
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if _, err := e.run(); !errors.Is(err, e.want) {
				t.Fatalf("err = %v, want %v", err, e.want)
			}
		})
	}
}
