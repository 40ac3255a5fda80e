package codegen

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workload"
)

// run compiles MiniC source through the whole pipeline and executes it,
// returning exit code and trap output.
func run(t *testing.T, src string, opt Options) (int32, string) {
	t.Helper()
	mod, err := cc.Compile("test", src)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	prog, err := Generate(mod, opt)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var out bytes.Buffer
	m := vm.NewMachine(prog, 1<<20, &out)
	code, err := m.Run(50_000_000)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, prog.Disassemble())
	}
	return code, out.String()
}

// allVariants runs the program under all four abstract-machine variants
// and requires identical behaviour (the de-tuning must preserve
// semantics; only code size changes).
func allVariants(t *testing.T, src string, wantCode int32, wantOut string) {
	t.Helper()
	for _, opt := range []Options{
		{},
		{NoImmediates: true},
		{NoRegDisp: true},
		{NoImmediates: true, NoRegDisp: true},
	} {
		code, out := run(t, src, opt)
		if code != wantCode || out != wantOut {
			t.Errorf("variant %+v: code=%d out=%q; want code=%d out=%q",
				opt, code, out, wantCode, wantOut)
		}
	}
}

func TestReturnConstant(t *testing.T) {
	allVariants(t, `int main(void) { return 42; }`, 42, "")
}

func TestArithmetic(t *testing.T) {
	allVariants(t, `
int main(void) {
	int a = 10, b = 3;
	putint(a + b);
	putint(a - b);
	putint(a * b);
	putint(a / b);
	putint(a % b);
	putint(a & b);
	putint(a | b);
	putint(a ^ b);
	putint(a << b);
	putint(a >> 1);
	putint(-a);
	putint(~a);
	return 0;
}`, 0, "13\n7\n30\n3\n1\n2\n11\n9\n80\n5\n-10\n-11\n")
}

func TestNegativeDivision(t *testing.T) {
	// C semantics: trunc toward zero.
	allVariants(t, `
int main(void) {
	putint(-7 / 2);
	putint(-7 % 2);
	putint(7 / -2);
	return 0;
}`, 0, "-3\n-1\n-3\n")
}

func TestComparisonsAndLogic(t *testing.T) {
	allVariants(t, `
int main(void) {
	int a = 5, b = 7;
	putint(a < b);
	putint(a > b);
	putint(a == 5);
	putint(a != 5);
	putint(a <= 5);
	putint(b >= 8);
	putint(a < b && b < 10);
	putint(a > b || b > 100);
	putint(!a);
	putint(!0);
	return 0;
}`, 0, "1\n0\n1\n0\n1\n0\n1\n0\n0\n1\n")
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The right operand must not evaluate when the left decides.
	allVariants(t, `
int hits;
int bump(int v) { hits++; return v; }
int main(void) {
	hits = 0;
	if (bump(0) && bump(1)) putint(-1);
	putint(hits);
	hits = 0;
	if (bump(1) || bump(1)) putint(hits);
	return 0;
}`, 0, "1\n1\n")
}

func TestLoops(t *testing.T) {
	allVariants(t, `
int main(void) {
	int s = 0, i;
	for (i = 1; i <= 10; i++) s += i;
	putint(s);
	s = 0; i = 0;
	while (i < 5) { s += 2; i++; }
	putint(s);
	s = 0; i = 0;
	do { s++; } while (s < 3);
	putint(s);
	for (i = 0; i < 10; i++) {
		if (i == 3) continue;
		if (i == 6) break;
		putint(i);
	}
	return 0;
}`, 0, "55\n10\n3\n0\n1\n2\n4\n5\n")
}

func TestRecursionFib(t *testing.T) {
	allVariants(t, `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int main(void) { putint(fib(15)); return 0; }`, 0, "610\n")
}

func TestMutualRecursion(t *testing.T) {
	// MiniC needs no prototypes: all top-level signatures are
	// registered before bodies are checked.
	allVariants(t, `
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int main(void) { putint(isEven(10)); putint(isOdd(10)); return 0; }`, 0, "1\n0\n")
}

func TestArraysAndPointers(t *testing.T) {
	allVariants(t, `
int a[10];
int main(void) {
	int i;
	int* p;
	for (i = 0; i < 10; i++) a[i] = i * i;
	p = a;
	putint(*p);
	putint(*(p + 3));
	putint(p[9]);
	p = &a[4];
	putint(*p);
	putint(p - a);
	p++;
	putint(*p);
	return 0;
}`, 0, "0\n9\n81\n16\n4\n25\n")
}

func TestLocalArrays(t *testing.T) {
	allVariants(t, `
int main(void) {
	int v[5];
	int i, s;
	for (i = 0; i < 5; i++) v[i] = i + 1;
	s = 0;
	for (i = 0; i < 5; i++) s += v[i];
	putint(s);
	return 0;
}`, 0, "15\n")
}

func TestCharsAndStrings(t *testing.T) {
	allVariants(t, `
char msg[6] = "hello";
int slen(char* s) {
	int n = 0;
	while (s[n]) n++;
	return n;
}
int main(void) {
	char c = 'A';
	putchar(c);
	putchar(c + 1);
	putchar('\n');
	puts(msg);
	puts("world");
	putint(slen(msg));
	return 0;
}`, 0, "AB\nhello\nworld\n5\n")
}

func TestCharSignedness(t *testing.T) {
	allVariants(t, `
char c;
int main(void) {
	c = 200;        // wraps to -56 as signed char
	putint(c);
	c = 127;
	c++;
	putint(c);      // overflow wraps to -128
	return 0;
}`, 0, "-56\n-128\n")
}

func TestGlobalInitAndUpdate(t *testing.T) {
	allVariants(t, `
int g = 100;
int h;
int main(void) {
	putint(g);
	putint(h);
	g = g + 1;
	h = g * 2;
	putint(g);
	putint(h);
	return 0;
}`, 0, "100\n0\n101\n202\n")
}

func TestManyArguments(t *testing.T) {
	// Exercises stack-passed arguments (beyond the 4 register args).
	allVariants(t, `
int sum7(int a, int b, int c, int d, int e, int f, int g) {
	return a + b*10 + c*100 + d*1000 + e*10000 + f*100000 + g*1000000;
}
int main(void) { putint(sum7(1,2,3,4,5,6,7)); return 0; }`, 0, "7654321\n")
}

func TestNestedCalls(t *testing.T) {
	allVariants(t, `
int g(int x) { return x + 1; }
int f(int a, int b) { return a * 100 + b; }
int main(void) {
	putint(f(g(1), g(2)));
	putint(g(g(g(0))));
	return 0;
}`, 0, "203\n3\n")
}

func TestIncDecSemantics(t *testing.T) {
	allVariants(t, `
int main(void) {
	int i = 5, x;
	x = i++;
	putint(x); putint(i);
	x = ++i;
	putint(x); putint(i);
	x = i--;
	putint(x); putint(i);
	x = --i;
	putint(x); putint(i);
	return 0;
}`, 0, "5\n6\n7\n7\n7\n6\n5\n5\n")
}

func TestCompoundAssignment(t *testing.T) {
	allVariants(t, `
int main(void) {
	int a = 100;
	a += 5; putint(a);
	a -= 10; putint(a);
	a *= 2; putint(a);
	a /= 3; putint(a);
	a %= 7; putint(a);
	a <<= 3; putint(a);
	a >>= 1; putint(a);
	a |= 8; putint(a);
	a &= 12; putint(a);
	a ^= 5; putint(a);
	return 0;
}`, 0, "105\n95\n190\n63\n0\n0\n0\n8\n8\n13\n")
}

func TestAssignmentChains(t *testing.T) {
	allVariants(t, `
int main(void) {
	int a, b, c;
	a = b = c = 7;
	putint(a + b + c);
	return 0;
}`, 0, "21\n")
}

func TestDeepExpression(t *testing.T) {
	// Forces register-pressure spilling in the Sethi–Ullman allocator.
	allVariants(t, `
int main(void) {
	int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9,j=10,k=11,l=12,m=13,n=14,o=15,p=16;
	putint(((a+b)*(c+d) + (e+f)*(g+h)) * ((i+j)*(k+l) + (m+n)*(o+p)));
	return 0;
}`, 0, "236964\n")
}

func TestPointerToLocal(t *testing.T) {
	allVariants(t, `
void set(int* p, int v) { *p = v; }
int main(void) {
	int x = 1;
	set(&x, 55);
	putint(x);
	return 0;
}`, 0, "55\n")
}

func TestStringTable(t *testing.T) {
	allVariants(t, `
int main(void) {
	puts("one");
	puts("two");
	puts("one");
	return 0;
}`, 0, "one\ntwo\none\n")
}

func TestExitTrap(t *testing.T) {
	allVariants(t, `int main(void) { exit(7); return 1; }`, 7, "")
}

func TestSieve(t *testing.T) {
	allVariants(t, `
char sieve[100];
int main(void) {
	int i, j, count = 0;
	for (i = 2; i < 100; i++) sieve[i] = 1;
	for (i = 2; i < 100; i++) {
		if (sieve[i]) {
			count++;
			for (j = i + i; j < 100; j += i) sieve[j] = 0;
		}
	}
	putint(count);
	return 0;
}`, 0, "25\n")
}

func TestSaltPepperEndToEnd(t *testing.T) {
	// The paper's running example, completed into a runnable program.
	allVariants(t, `
int calls;
int pepper(int a, int b) { calls++; return a + b; }
int salt(int j, int i) {
	if (j > 0) {
		pepper(i, j);
		j--;
	}
	return j;
}
int main(void) {
	putint(salt(3, 9));
	putint(salt(0, 9));
	putint(calls);
	return 0;
}`, 0, "2\n0\n1\n")
}

func TestGenerateRejectsMissingMain(t *testing.T) {
	mod, err := cc.Compile("t", `int f(void) { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(mod, Options{}); err == nil {
		t.Error("expected error for missing main")
	}
}

func TestVariantInstructionSets(t *testing.T) {
	src := `
int a[10];
int main(void) {
	int i, s = 0;
	for (i = 0; i < 10; i++) a[i] = i;
	for (i = 0; i < 10; i++) s += a[i];
	return s;
}`
	mod, err := cc.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Generate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noImm, err := Generate(mod, Options{NoImmediates: true})
	if err != nil {
		t.Fatal(err)
	}
	noDisp, err := Generate(mod, Options{NoRegDisp: true})
	if err != nil {
		t.Fatal(err)
	}

	countOps := func(p *vm.Program, pred func(vm.Opcode) bool) int {
		n := 0
		for _, ins := range p.Code {
			if pred(ins.Op) {
				n++
			}
		}
		return n
	}
	if n := countOps(noImm, func(op vm.Opcode) bool {
		return op == vm.ADDI || op.IsImmBranch()
	}); n != 0 {
		t.Errorf("NoImmediates emitted %d immediate instructions", n)
	}
	if countOps(base, func(op vm.Opcode) bool { return op == vm.ADDI }) == 0 {
		t.Error("base variant should use ADDI")
	}
	for _, ins := range noDisp.Code {
		switch ins.Op {
		case vm.LDW, vm.LDB, vm.STW, vm.STB:
			if ins.Imm != 0 {
				t.Errorf("NoRegDisp left displacement: %s", ins)
			}
		}
	}
	// De-tuning increases instruction counts.
	if len(noImm.Code) <= len(base.Code) || len(noDisp.Code) <= len(base.Code) {
		t.Errorf("variant sizes: base=%d noImm=%d noDisp=%d",
			len(base.Code), len(noImm.Code), len(noDisp.Code))
	}
}

func TestDisassembledShape(t *testing.T) {
	mod, err := cc.Compile("t", `
int pepper(int a, int b) { return a + b; }
int salt(int j, int i) {
	if (j > 0) { pepper(i, j); j--; }
	return j;
}
int main(void) { return salt(1, 2); }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Generate(mod, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := prog.Disassemble()
	for _, want := range []string{"salt:", "enter sp,sp,", "st.iw ra,", "rjr ra", "call", "blei.i"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// TestGenerateAllocs pins the presized tables: generating the lcc
// preset allocates a small, fixed number of times (the code, function
// and global tables once each, plus the per-module maps and the
// per-function tables that grow once and are reused). A Code slice that
// regrows by appending would add one allocation per doubling.
func TestGenerateAllocs(t *testing.T) {
	mod, err := cc.Compile("lcc", workload.Generate(workload.Lcc))
	if err != nil {
		t.Fatal(err)
	}
	var prog *vm.Program
	n := testing.AllocsPerRun(5, func() {
		if prog, err = Generate(mod, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 79 allocations for 35k instructions on go1.24/amd64.
	const maxAllocs = 90
	if n > maxAllocs {
		t.Errorf("Generate(lcc) allocates %v times for %d instructions, want at most %d", n, len(prog.Code), maxAllocs)
	}
	t.Logf("Generate(lcc): %v allocs, %d instructions, code cap %d", n, len(prog.Code), cap(prog.Code))
}

// TestGenerateRejectsNegativeParamOffset: a valid module can load a
// parameter at a negative offset (a wire object can carry one); that
// offset names no argument register, so Generate rejects it instead of
// emitting a register number the VM cannot index.
func TestGenerateRejectsNegativeParamOffset(t *testing.T) {
	f := &ir.Function{Name: "main"}
	m := &ir.Module{Functions: []*ir.Function{f}}
	m.IndexSymbols()
	if err := m.AppendTree(f, "RETI(INDIRI(ADDRFP[-4]))"); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(m, Options{}); err == nil || !strings.Contains(err.Error(), "parameter offset -4") {
		t.Fatalf("Generate: %v, want a parameter offset error", err)
	}
}
