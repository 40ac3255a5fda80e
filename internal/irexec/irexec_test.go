package irexec

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// compile compiles MiniC to IR.
func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := cc.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

// runIR interprets MiniC through the tree interpreter.
func runIR(t *testing.T, src string) (int32, string) {
	t.Helper()
	return runModIR(t, compile(t, src))
}

// runModIR interprets mod through the tree interpreter.
func runModIR(t *testing.T, mod *ir.Module) (int32, string) {
	t.Helper()
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
	return runModVM(t, compile(t, src))
}

// runModVM runs mod through codegen and the VM.
func runModVM(t *testing.T, mod *ir.Module) (int32, string) {
	t.Helper()
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

// TestQuickDifferentialVsVM: for generated programs on fixed seeds, the
// tree interpreter and the compiled pipeline agree — an independent
// check of the code generator's semantics — and so do both on the
// module the wire format's round trip returns. internal/difftest runs
// the same seeds on every engine.
func TestQuickDifferentialVsVM(t *testing.T) {
	n := int64(25)
	if testing.Short() {
		n = 5
	}
	for seed := int64(1); seed <= n; seed++ {
		mod := compile(t, workload.Generate(workload.Profile{
			Name: "rand", Seed: seed,
			LeafFuncs: 6, MidFuncs: 2, GlobalInts: 3, GlobalArrs: 2,
			Strings: 1, MeanStmts: 7,
		}))
		data, err := wire.Compress(mod)
		if err != nil {
			t.Fatalf("seed %d: wire: %v", seed, err)
		}
		back, err := wire.Decompress(data)
		if err != nil {
			t.Fatalf("seed %d: wire decode: %v", seed, err)
		}
		code, out := runModIR(t, mod)
		for _, r := range []struct {
			name string
			run  func(*testing.T, *ir.Module) (int32, string)
			mod  *ir.Module
		}{
			{"vm", runModVM, mod},
			{"wire+irexec", runModIR, back},
			{"wire+vm", runModVM, back},
		} {
			if c, o := r.run(t, r.mod); c != code || o != out {
				t.Errorf("seed %d: %s gave exit %d, out %q; irexec exit %d, out %q",
					seed, r.name, c, o, code, out)
			}
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
