package irexec

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// runIR interprets MiniC through the tree interpreter.
func runIR(t *testing.T, src string) (int32, string) {
	t.Helper()
	mod, err := cc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	m, err := NewMachine(mod, 1<<20, &out)
	if err != nil {
		t.Fatal(err)
	}
	code, err := m.Run(0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return code, out.String()
}

// runVM runs the same source through codegen and the VM.
func runVM(t *testing.T, src string) (int32, string) {
	t.Helper()
	mod, err := cc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	mach := vm.NewMachine(prog, 1<<20, &out)
	code, err := mach.Run(100_000_000)
	if err != nil {
		t.Fatalf("vm run: %v", err)
	}
	return code, out.String()
}

// agree asserts the two implementations behave identically.
func agree(t *testing.T, src string) {
	t.Helper()
	ic, io_ := runIR(t, src)
	vc, vo := runVM(t, src)
	if ic != vc || io_ != vo {
		t.Errorf("divergence:\n irexec: code=%d out=%q\n vm:     code=%d out=%q\nsource:\n%s",
			ic, io_, vc, vo, src)
	}
}

func TestBasics(t *testing.T) {
	agree(t, `int main(void) { putint(6 * 7); return 1; }`)
}

func TestControlFlow(t *testing.T) {
	agree(t, `
int main(void) {
	int i, s = 0;
	for (i = 0; i < 10; i++) {
		if (i % 2) continue;
		if (i == 8) break;
		s += i;
	}
	putint(s);
	while (s > 0) s -= 3;
	putint(s);
	return 0;
}`)
}

func TestRecursionAndGlobals(t *testing.T) {
	agree(t, `
int depth;
int fib(int n) {
	depth++;
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main(void) { putint(fib(13)); putint(depth); return 0; }`)
}

func TestPointersAndArrays(t *testing.T) {
	agree(t, `
int a[16];
char s[8] = "hiya";
int main(void) {
	int i;
	int* p = a;
	for (i = 0; i < 16; i++) p[i] = i * 3;
	putint(a[7]);
	putint(*(p + 9));
	puts(s);
	putint(s[2]);
	return 0;
}`)
}

func TestCharTruncation(t *testing.T) {
	agree(t, `
char c;
int main(void) {
	c = 300;
	putint(c);
	c = 127; c++;
	putint(c);
	return 0;
}`)
}

func TestTernarySwitchSizeof(t *testing.T) {
	agree(t, `
int main(void) {
	int x = 4;
	putint(x > 2 ? 10 : 20);
	switch (x) {
	case 3: putint(3); break;
	case 4: putint(4); // fallthrough
	case 5: putint(5); break;
	default: putint(9);
	}
	putint(sizeof(int[8]));
	return 0;
}`)
}

func TestStructs(t *testing.T) {
	agree(t, `
struct Node { int v; struct Node* next; };
struct Node pool[6];
int main(void) {
	int i;
	struct Node* head = 0;
	for (i = 0; i < 6; i++) {
		pool[i].v = i + 1;
		pool[i].next = head;
		head = &pool[i];
	}
	int product = 1;
	while (head != 0) {
		product *= head->v;
		head = head->next;
	}
	putint(product);
	return 0;
}`)
}

func TestExitTrap(t *testing.T) {
	agree(t, `int main(void) { putint(1); exit(42); putint(2); return 0; }`)
}

func TestManyArgs(t *testing.T) {
	agree(t, `
int f(int a, int b, int c, int d, int e, int g) {
	return a + b*2 + c*3 + d*4 + e*5 + g*6;
}
int main(void) { putint(f(1,2,3,4,5,6)); return 0; }`)
}

func TestDivByZeroFaults(t *testing.T) {
	mod, err := cc.Compile("t", `int main(void) { int z = 0; return 4 / z; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(mod, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err == nil {
		t.Error("division by zero not detected")
	}
}

func TestStackOverflowDetected(t *testing.T) {
	mod, err := cc.Compile("t", `
int f(int n) { return f(n + 1); }
int main(void) { return f(0); }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(mod, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10_000_000); err == nil {
		t.Error("runaway recursion not detected")
	}
}

func TestNoMain(t *testing.T) {
	mod, err := cc.Compile("t", `int f(void) { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(mod, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err == nil {
		t.Error("missing main not reported")
	}
}

// errOther is the class of an error that matches no sentinel errClass
// knows.
var errOther = errors.New("other error")

// errClass maps an engine's error onto the vm or guard sentinel it
// matches, so failures on different engines compare.
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{guard.ErrLimit, vm.ErrDivByZero, vm.ErrMemFault} {
		if errors.Is(err, s) {
			return s
		}
	}
	return errOther
}

// run is one program's observable behaviour on one engine.
type run struct {
	code int32
	out  string
	err  error // its class (errClass)
}

// runIRExec interprets mod under a step limit (0: the interpreter's
// default).
func runIRExec(mod *ir.Module, maxSteps int64) run {
	var out bytes.Buffer
	m, err := NewMachine(mod, 1<<20, &out)
	if err != nil {
		return run{err: errClass(err)}
	}
	defer m.Release()
	code, err := m.Run(maxSteps)
	return run{code, out.String(), errClass(err)}
}

// runCompiled generates code for mod and runs it on the VM under a
// step limit.
func runCompiled(mod *ir.Module, maxSteps int64) run {
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		return run{err: errClass(err)}
	}
	var out bytes.Buffer
	mach := vm.NewMachine(prog, 1<<20, &out)
	defer mach.Release()
	code, err := mach.Run(maxSteps)
	return run{code, out.String(), errClass(err)}
}

// fourWay runs src through the tree interpreter and the compiled
// pipeline, on the compiled module and on the module the wire format's
// round trip returns, under the given step limits. It returns the
// runs' common behaviour, or an error naming the first run that differs
// from the first in exit code, output or error class.
func fourWay(src string, irSteps, vmSteps int64) (run, error) {
	mod, err := cc.Compile("rand", src)
	if err != nil {
		return run{}, fmt.Errorf("compile: %w", err)
	}
	data, err := wire.Compress(mod)
	if err != nil {
		return run{}, fmt.Errorf("wire: %w", err)
	}
	back, err := wire.Decompress(data)
	if err != nil {
		return run{}, fmt.Errorf("wire decode: %w", err)
	}
	runs := []struct {
		name string
		run
	}{
		{"irexec", runIRExec(mod, irSteps)},
		{"vm", runCompiled(mod, vmSteps)},
		{"wire+irexec", runIRExec(back, irSteps)},
		{"wire+vm", runCompiled(back, vmSteps)},
	}
	for _, r := range runs[1:] {
		if r.run != runs[0].run {
			return run{}, fmt.Errorf("divergence %s(%d,%q,%v) %s(%d,%q,%v)",
				runs[0].name, runs[0].code, runs[0].out, runs[0].err,
				r.name, r.code, r.out, r.err)
		}
	}
	return runs[0].run, nil
}

// TestQuickDifferentialVsVM: for random generated programs, the tree
// interpreter and the compiled pipeline agree — an independent check
// of the code generator's semantics — and so do both on the module the
// wire format's round trip returns.
func TestQuickDifferentialVsVM(t *testing.T) {
	f := func(seed int64) bool {
		prof := workload.Profile{
			Name: "rand", Seed: seed,
			LeafFuncs: 6, MidFuncs: 2, GlobalInts: 3, GlobalArrs: 2,
			Strings: 1, MeanStmts: 7,
		}
		if _, err := fourWay(workload.Generate(prof), 0, 100_000_000); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialErrorClasses: programs that fail do so the same way
// on all four runs of fourWay — same output up to the failure, same
// vm or guard sentinel.
func TestDifferentialErrorClasses(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      run
	}{
		{"div by zero", `int main(void) { int z = 0; putint(1); return 4 / z; }`,
			run{out: "1\n", err: vm.ErrDivByZero}},
		{"mem fault", `int main(void) { int *p = 0; putint(2); p = p - 9; return *p; }`,
			run{out: "2\n", err: vm.ErrMemFault}},
		{"step limit", `int main(void) { while (1) ; return 0; }`,
			run{err: guard.ErrLimit}},
		{"exit", `int main(void) { putint(3); exit(7); return 0; }`,
			run{code: 7, out: "3\n"}},
	} {
		got, err := fourWay(c.src, 100_000, 100_000)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s: all runs gave %+v, want %+v", c.name, got, c.want)
		}
	}
}

// edgeMachine compiles a program that stores one byte off bytes past
// the global g (at DataBase), in a machine of memSize bytes.
func edgeMachine(t *testing.T, off, memSize int) *Machine {
	t.Helper()
	mod, err := cc.Compile("t", fmt.Sprintf(`char g[4];
int main(void) { char *p = g; p[%d] = 1; return 0; }`, off))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(mod, memSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemSizeEdge: at a memory size that is not a whole number of
// pages, a store at the last byte succeeds and one a byte further
// faults with ErrMemFault.
func TestMemSizeEdge(t *testing.T) {
	const size = 4096 + 3
	for _, c := range []struct {
		addr  int
		fault bool
	}{{size - 1, false}, {size, true}} {
		m := edgeMachine(t, c.addr-DataBase, size)
		if len(m.Mem) != size {
			t.Fatalf("len(Mem) = %d, want %d", len(m.Mem), size)
		}
		_, err := m.Run(0)
		if got := errors.Is(err, ErrMemFault); got != c.fault {
			t.Errorf("store at %d: err %v, want fault %v", c.addr, err, c.fault)
		}
		if !c.fault && m.Mem[c.addr] != 1 {
			t.Errorf("store at %d did not land", c.addr)
		}
		m.Release()
	}
}

// TestReleaseIdempotent: Release frees memory at once, a second
// Release is a no-op, and a Run afterwards faults with ErrMemFault.
func TestReleaseIdempotent(t *testing.T) {
	m := edgeMachine(t, 0, 0)
	m.Release()
	m.Release()
	if m.Mem != nil {
		t.Fatalf("Mem after Release has length %d", len(m.Mem))
	}
	if _, err := m.Run(0); !errors.Is(err, ErrMemFault) {
		t.Errorf("Run after Release: err %v, want ErrMemFault", err)
	}
}
