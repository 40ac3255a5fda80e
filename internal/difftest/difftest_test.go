// Package difftest is the differential oracle for every execution
// engine. It holds the one table of engines and runs each input on all
// of them: the tree interpreter and codegen→vm, on the compiled module
// and on its wire round trip; BRISC predecoded and after a
// serialization round trip; BRISC executed in place at three page
// budgets; and the JIT. Every engine must give the same exit code,
// output and error class, in the manner of Csmith (Yang et al.,
// PLDI 2011): many programs, each run everywhere, all results
// compared.
//
// The package has only test files; `go test ./internal/difftest` runs
// the trap table, the named programs and the fixed seeds of
// FuzzDifferential.
package difftest

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/irexec"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// memSize is every engine's memory for an input that sets none.
const memSize = 1 << 20

// maxSteps bounds a run whose input sets no step limit.
const maxSteps = 400_000_000

// xipPageSize is small, so even a short program spans several pages
// and a one-page budget faults and evicts on most jumps.
const xipPageSize = 64

// input is one program and the setting every engine runs it under.
type input struct {
	name string
	src  string
	opt  brisc.Options
	// mem is the memory size (0: memSize).
	mem int
	// limits bounds every engine's run; a zero MaxSteps is maxSteps.
	limits guard.Limits
	// irSteps is irexec's step budget (0: its default), kept apart
	// from limits.MaxSteps because the tree interpreter counts
	// evaluated nodes, not instructions.
	irSteps int64
	// runs is how many times each engine runs the program (0: once).
	runs int
	// want is the outcome of every run; nil requires a clean exit.
	want *outcome
}

// outcome is one run's observable behaviour.
type outcome struct {
	code  int32
	out   string
	class string // classOf the run's error
}

func (o outcome) String() string {
	return fmt.Sprintf("{exit %d, out %q, class %q}", o.code, o.out, o.class)
}

// classOf names the vm or guard sentinel err matches, and a trap's
// limit, so failures on different engines compare.
func classOf(err error) string {
	var trap *guard.TrapError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &trap):
		return "limit:" + trap.Limit
	case errors.Is(err, vm.ErrDivByZero):
		return "divzero"
	case errors.Is(err, vm.ErrMemFault):
		return "memfault"
	case errors.Is(err, vm.ErrBadPC):
		return "badpc"
	case errors.Is(err, vm.ErrIllegal):
		return "illegal"
	}
	return "other: " + err.Error()
}

// artifacts is everything the engines load, built once per input.
type artifacts struct {
	mod, back      *ir.Module  // compiled, and after the wire round trip
	prog, backProg *vm.Program // codegen of each
	obj, parsed    *brisc.Object
	img            *brisc.XIPImage
	jitted         *vm.Program
}

func build(t *testing.T, in input) *artifacts {
	t.Helper()
	must := func(what string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	var a artifacts
	var err error
	a.mod, err = cc.Compile(in.name, in.src)
	must("compile", err)
	data, err := wire.Compress(a.mod)
	must("wire", err)
	a.back, err = wire.Decompress(data)
	must("wire decode", err)
	if got, want := a.back.String(), a.mod.String(); got != want {
		t.Errorf("wire round trip changed the module:\n%s\nwant:\n%s", got, want)
	}
	a.prog, err = codegen.Generate(a.mod, codegen.Options{})
	must("codegen", err)
	a.backProg, err = codegen.Generate(a.back, codegen.Options{})
	must("codegen of the wire round trip", err)
	a.obj, err = brisc.Compress(a.prog, in.opt)
	must("brisc", err)
	a.parsed, err = brisc.Parse(a.obj.Bytes())
	must("brisc parse", err)
	a.img, err = brisc.BuildXIP(a.obj, brisc.XIPOptions{PageSize: xipPageSize})
	must("xip", err)
	a.jitted, err = brisc.JIT(a.obj)
	must("jit", err)
	return &a
}

// machine is what every engine loads: the vm, BRISC and irexec
// machines all have these methods.
type machine interface {
	SetLimits(guard.Limits) error
	Run(maxSteps int64) (int32, error)
	Release()
}

type engine struct {
	name string
	load func(a *artifacts, mem int, out io.Writer) (machine, error)
}

func vmEngine(name string, prog func(*artifacts) *vm.Program) engine {
	return engine{name, func(a *artifacts, mem int, out io.Writer) (machine, error) {
		return vm.NewMachine(prog(a), mem, out), nil
	}}
}

func irexecEngine(name string, mod func(*artifacts) *ir.Module) engine {
	return engine{name, func(a *artifacts, mem int, out io.Writer) (machine, error) {
		return irexec.NewMachine(mod(a), mem, out)
	}}
}

func briscEngine(name string, obj func(*artifacts) *brisc.Object) engine {
	return engine{name, func(a *artifacts, mem int, out io.Writer) (machine, error) {
		return brisc.NewInterp(obj(a), mem, out), nil
	}}
}

// xipEngine executes in place with at most pages decoded pages
// resident (0: all of them).
func xipEngine(name string, pages int) engine {
	return engine{name, func(a *artifacts, mem int, out io.Writer) (machine, error) {
		it := brisc.NewInterp(a.obj, mem, out)
		if err := it.EnableXIP(a.img, pages, 0); err != nil {
			it.Release()
			return nil, err
		}
		return it, nil
	}}
}

// engines is the one list of execution engines; its first entry is
// the reference the others are compared with.
var engines = []engine{
	irexecEngine("irexec", func(a *artifacts) *ir.Module { return a.mod }),
	irexecEngine("wire+irexec", func(a *artifacts) *ir.Module { return a.back }),
	vmEngine("vm", func(a *artifacts) *vm.Program { return a.prog }),
	vmEngine("wire+vm", func(a *artifacts) *vm.Program { return a.backProg }),
	briscEngine("brisc", func(a *artifacts) *brisc.Object { return a.obj }),
	briscEngine("parse+brisc", func(a *artifacts) *brisc.Object { return a.parsed }),
	xipEngine("xip-1", 1),
	xipEngine("xip-8", 8),
	xipEngine("xip-all", 0),
	vmEngine("jit", func(a *artifacts) *vm.Program { return a.jitted }),
}

// start loads a on e under in's memory size and limits; irexec, which
// counts tree nodes, runs under in.irSteps instead of limits.MaxSteps.
func (e engine) start(a *artifacts, in input, out io.Writer) (machine, error) {
	m, err := e.load(a, cmp.Or(in.mem, memSize), out)
	if err != nil {
		return nil, err
	}
	l := in.limits
	l.MaxSteps = cmp.Or(l.MaxSteps, maxSteps)
	if _, tree := m.(*irexec.Machine); tree {
		l.MaxSteps = in.irSteps
	}
	if err := m.SetLimits(l); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

// run loads a on e and runs it in.runs times. Each later run follows
// a Reset, or on irexec, which has none, starts a fresh machine; every
// machine is released when run returns.
func (e engine) run(a *artifacts, in input) []outcome {
	var out bytes.Buffer
	var m machine
	res := make([]outcome, max(in.runs, 1))
	for i := range res {
		out.Reset()
		if r, ok := m.(interface{ Reset() }); ok {
			r.Reset()
		} else {
			var err error
			if m, err = e.start(a, in, &out); err != nil {
				res[i] = outcome{class: classOf(err)}
				continue
			}
			defer m.Release()
		}
		code, err := m.Run(0)
		res[i] = outcome{code, out.String(), classOf(err)}
	}
	return res
}

// check runs in on every engine. Each must give the reference
// engine's outcomes, and those must be in.want (or a clean exit).
func check(t *testing.T, in input) {
	t.Helper()
	a := build(t, in)
	var ref []outcome
	for i, e := range engines {
		got := e.run(a, in)
		if i == 0 {
			ref = got
		} else if !slices.Equal(got, ref) {
			t.Errorf("%s: %v, %s: %v", engines[0].name, ref, e.name, got)
		}
	}
	for i, o := range ref {
		switch {
		case in.want != nil && o != *in.want:
			t.Errorf("run %d: every engine gave %v, want %v", i+1, o, *in.want)
		case in.want == nil && o.class != "":
			t.Errorf("run %d: every engine gave %v, want a clean exit", i+1, o)
		}
	}
}

const saltSrc = `
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
}`

// traps are programs that fail, or exit early, the same way on every
// engine: the same output up to the failure and the same error class.
var traps = []input{
	{name: "divzero", src: `int main(void) { int z = 0; putint(1); return 4 / z; }`,
		want: &outcome{out: "1\n", class: "divzero"}},
	{name: "memfault-negative", src: `int main(void) { int *p = 0; putint(2); p = p - 9; return *p; }`,
		want: &outcome{out: "2\n", class: "memfault"}},
	{name: "memfault-past-end", src: fmt.Sprintf(`int main(void) { int *p = 0; putint(3); p = p + %d; return *p; }`, memSize/4),
		want: &outcome{out: "3\n", class: "memfault"}},
	{name: "step-limit", src: `int main(void) { while (1) ; return 0; }`,
		limits: guard.Limits{MaxSteps: 100_000}, irSteps: 100_000,
		want: &outcome{class: "limit:" + guard.LimitSteps}},
	{name: "call-depth", src: `int f(int n) { return f(n + 1); } int main(void) { putint(4); return f(0); }`,
		limits: guard.Limits{MaxCallDepth: 50},
		want:   &outcome{out: "4\n", class: "limit:" + guard.LimitDepth}},
	{name: "exit", src: `int main(void) { putint(3); exit(7); return 0; }`,
		want: &outcome{code: 7, out: "3\n"}},
	// cc folds the scaling of the index into one constant, 2^32, which
	// wraps to 0 at compile time as the multiply it replaces would at
	// run time, so every engine loads p[0].
	{name: "folded-constant", src: `int a[4]; int main(){int *p; p=a; a[0]=7; return p[1073741824];}`,
		want: &outcome{code: 7}},
	// The globals end at 32 bytes, past a 20-byte memory: a memory
	// fault from the first run and again after Reset, never a panic.
	{name: "data-segment", src: `int g[4]; int main(void) { g[3] = 1; return g[3]; }`,
		mem: 20, runs: 2, want: &outcome{class: "memfault"}},
}

// TestDifferential runs the trap table, saltSrc under every BRISC
// option set, every kernel and workload.Quick on every engine.
func TestDifferential(t *testing.T) {
	inputs := slices.Clone(traps)
	for _, o := range []struct {
		name string
		opt  brisc.Options
	}{
		{"salt", brisc.Options{}},
		{"salt-noepi", brisc.Options{NoEPI: true}},
		{"salt-nocombine", brisc.Options{NoCombine: true}},
		{"salt-nospecialize", brisc.Options{NoSpecialize: true}},
		{"salt-nocombine-nospecialize", brisc.Options{NoCombine: true, NoSpecialize: true}},
		{"salt-abundant", brisc.Options{AbundantMemory: true}},
		{"salt-k5", brisc.Options{K: 5}},
		{"salt-onepass", brisc.Options{MaxPasses: 1}},
	} {
		inputs = append(inputs, input{name: o.name, src: saltSrc, opt: o.opt})
	}
	kernels := workload.Kernels()
	var names []string
	for name := range kernels {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if (testing.Short() || raceEnabled) && name != "fib" {
			continue
		}
		inputs = append(inputs, input{name: "kernel-" + name, src: kernels[name]})
	}
	inputs = append(inputs, input{name: "quick", src: workload.Generate(workload.Quick)})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) { check(t, in) })
	}
}

// profiles are the two random-program shapes: index 0 is the smaller
// one core's harness used, 1 the one irexec's used.
var profiles = []workload.Profile{
	{Name: "rand", LeafFuncs: 5, MidFuncs: 2, GlobalInts: 3, GlobalArrs: 2, Strings: 1, MeanStmts: 6},
	{Name: "rand", LeafFuncs: 6, MidFuncs: 2, GlobalInts: 3, GlobalArrs: 2, Strings: 1, MeanStmts: 7},
}

// FuzzDifferential runs a generated program of either profile on
// every engine. Its seed corpus is seeds 1–12 of profile 0 and 1–25 of
// profile 1 (1–5 under -short), which plain `go test` runs.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(uint8(0), seed)
	}
	n := int64(25)
	if testing.Short() {
		n = 5
	}
	for seed := int64(1); seed <= n; seed++ {
		f.Add(uint8(1), seed)
	}
	f.Fuzz(func(t *testing.T, profile uint8, seed int64) {
		p := profiles[int(profile)%len(profiles)]
		p.Seed = seed
		check(t, input{name: "rand", src: workload.Generate(p)})
	})
}
