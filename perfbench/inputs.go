package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/irexec"
	"repro/internal/native"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// source is one generated MiniC translation unit.
type source struct {
	name string
	src  string
}

// want is the reference outcome of a program: exit code and output as
// the independent IR interpreter (irexec) produces them.
type want struct {
	exit int32
	out  string
}

// program is one input after set-up: its artifacts in every shipped
// form, the paper's size baselines, and its reference outcome.
type program struct {
	source
	wire  []byte // wire artifact
	brisc []byte // BRISC artifact
	xip   []byte // sealed page store of the BRISC code (PGS1)

	nativeFixed int // native.EncodeFixed bytes (T1 baseline)
	nativeVar   int // native.VariableSize bytes (T2 baseline)
	briscCode   int // BRISC CodeSize
	dict        int // learned dictionary patterns

	steps int64 // native VM steps to exit
	want  want
}

// scaled returns base with every size knob multiplied by s (at least 1).
func scaled(base workload.Profile, s float64) workload.Profile {
	n := func(v int) int { return max(1, int(math.Round(float64(v)*s))) }
	p := base
	p.LeafFuncs, p.MidFuncs = n(p.LeafFuncs), n(p.MidFuncs)
	p.GlobalInts, p.GlobalArrs = n(p.GlobalInts), n(p.GlobalArrs)
	p.Strings, p.StructVars = n(p.Strings), n(p.StructVars)
	return p
}

// stratified returns n scales spread geometrically over [lo, hi] in a
// seeded order, so every seed draws the same size distribution and
// only program content and order vary.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		f := 0.5
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		out[i] = lo * math.Pow(hi/lo, f)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// publishSources: wep-scale modules between half and twice the preset,
// a quarter of them Word97-like (WideLits).
func publishSources(seed int64) []source {
	const n = 16
	rng := rand.New(rand.NewSource(seed))
	scales := stratified(rng, n, 0.5, 2)
	rank := rng.Perm(n)
	var out []source
	for i, s := range scales {
		p := scaled(workload.Wep, s)
		p.Seed = rng.Int63()
		p.WideLits = rank[i] < n/4
		out = append(out, source{fmt.Sprintf("pub%02d", i), workload.Generate(sized(p, 200_000))})
	}
	return out
}

// coldSources: lcc-scale images (about 100 XIP pages) whose main calls
// every mid function once or twice, so most code is touched once.
func coldSources(seed int64) []source {
	rng := rand.New(rand.NewSource(seed))
	var out []source
	for i := 0; i < 4; i++ {
		p := workload.Lcc
		p.Seed = rng.Int63()
		p.MainSweep, p.MainRounds = true, 1+i%2
		out = append(out, source{fmt.Sprintf("cold%d", i), workload.Generate(p)})
	}
	return out
}

// hotSources: four of the hand-written kernels plus a wep-scale sweep
// with many rounds, small enough that every page fits the XIP budget.
// strops is left out: one run of it takes 300-500 ms, long enough for
// the host's speed to change under a single op.
func hotSources(seed int64) []source {
	rng := rand.New(rand.NewSource(seed))
	var out []source
	for _, k := range []string{"fib", "sieve", "matmul", "qsortk"} {
		out = append(out, source{k, workload.Kernels()[k]})
	}
	p := workload.Wep
	p.Seed = rng.Int63()
	p.MainSweep = true
	return append(out, source{"sweep", workload.Generate(sized(p, 3_500_000))})
}

// serveSources: small programs, one to three times the quick profile.
// Compress time is not sized like run time, so it varies with content:
// with 16 programs, ops_per_s differed by up to 30% between seeds, the
// same on every run of a seed; 32 average that out.
func serveSources(seed int64) []source {
	const n = 32
	rng := rand.New(rand.NewSource(seed))
	var out []source
	for i, s := range stratified(rng, n, 1, 3) {
		p := scaled(workload.Quick, s)
		p.Seed = rng.Int63()
		out = append(out, source{fmt.Sprintf("srv%d", i), workload.Generate(sized(p, 100_000))})
	}
	return out
}

// sized sets p's MainRounds so the program evaluates about target irexec
// tree nodes (some 0.6 native steps each), whatever the seed drew for
// one round: a seed changes what a program computes, not how much.
// Only the bound of main's round loop changes, not the code.
func sized(p workload.Profile, target int64) workload.Profile {
	p.MainRounds = 1
	mod, err := cc.Compile("size", workload.Generate(p))
	if err != nil {
		return p // set-up reports the error when it compiles the program
	}
	m, err := irexec.NewMachine(mod, 0, io.Discard)
	if err != nil {
		return p
	}
	if _, err := m.Run(0); err != nil || m.Steps == 0 {
		return p
	}
	p.MainRounds = int(max(1, (target+m.Steps/2)/m.Steps))
	return p
}

// oracle runs the IR module through irexec, the reference interpreter
// that shares no code with the VM, BRISC or the JIT.
func oracle(mod *ir.Module, rec *telemetry.Recorder) (want, error) {
	var out bytes.Buffer
	m, err := irexec.NewMachine(mod, 0, &out)
	if err != nil {
		return want{}, err
	}
	sp := span(rec, "irexec.run")
	code, err := m.Run(0)
	sp.End()
	if err != nil {
		return want{}, fmt.Errorf("irexec: %w", err)
	}
	return want{code, out.String()}, nil
}

// compileModule runs the front end and the code generator.
func compileModule(s source, rec *telemetry.Recorder) (*ir.Module, *vm.Program, error) {
	sp := span(rec, "cc.compile", telemetry.Int("src_bytes", int64(len(s.src))))
	mod, err := cc.Compile(s.name, s.src)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", s.name, err)
	}
	sp = span(rec, "codegen.generate")
	np, err := codegen.Generate(mod, codegen.Options{})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: codegen: %w", s.name, err)
	}
	return mod, np, nil
}

// compressBoth produces the wire and BRISC artifacts through the shared
// pool, as a producer publishing a module does.
func compressBoth(name string, mod *ir.Module, np *vm.Program, pool *parallel.Pool, rec *telemetry.Recorder) (wb []byte, obj *brisc.Object, err error) {
	sp := span(rec, "wire.compress", telemetry.Int("native_bytes", int64(native.FixedSize(np.Code))))
	wb, err = wire.CompressOpts(mod, wire.Options{Pool: pool})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: wire: %w", name, err)
	}
	sp = span(rec, "brisc.compress", telemetry.Int("instrs", int64(len(np.Code))))
	obj, err = brisc.Compress(np, brisc.Options{Pool: pool})
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: brisc: %w", name, err)
	}
	return wb, obj, nil
}

// build takes one source to a fully prepared program: compiled,
// compressed both ways, paged, run by the reference interpreter, and
// run once natively to count the steps every path is scored on.
func build(s source, pool *parallel.Pool, rec *telemetry.Recorder) (*program, error) {
	mod, np, err := compileModule(s, rec)
	if err != nil {
		return nil, err
	}
	wb, obj, err := compressBoth(s.name, mod, np, pool, rec)
	if err != nil {
		return nil, err
	}
	img, err := brisc.BuildXIP(obj, brisc.XIPOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: xip: %w", s.name, err)
	}
	w, err := oracle(mod, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	m := vm.NewMachine(np, 0, io.Discard)
	if _, err := m.Run(0); err != nil {
		return nil, fmt.Errorf("%s: vm: %w", s.name, err)
	}
	return &program{
		source:      s,
		wire:        wb,
		brisc:       obj.Bytes(),
		xip:         img.StoreBytes(),
		nativeFixed: native.FixedSize(np.Code),
		nativeVar:   native.VariableSize(np.Code),
		briscCode:   obj.Size().CodeSize(),
		dict:        len(obj.LearnedDict()),
		steps:       m.Steps,
		want:        w,
	}, nil
}

// buildAll prepares every source through one pool of nproc workers and
// records, per task, how long it waited between submission and start.
func buildAll(srcs []source, pool *parallel.Pool, rec *telemetry.Recorder) ([]*program, error) {
	submitted := time.Now()
	return parallel.Map(pool, "setup", len(srcs), func(i int) (*program, error) {
		sp := span(rec, "parallel.task", telemetry.Int("wait_us", time.Since(submitted).Microseconds()))
		defer sp.End()
		return build(srcs[i], pool, rec)
	})
}
