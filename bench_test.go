package codecomp

// One benchmark per table and figure in the paper's evaluation; the
// mapping to the paper is in DESIGN.md §4 and the recorded results in
// EXPERIMENTS.md. Ratios and sizes are attached to the benchmark
// output via ReportMetric, so `go test -bench=.` regenerates the
// numbers behind every table row.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/experiments"
	"repro/internal/flatezip"
	"repro/internal/huffman"
	"repro/internal/ir"
	"repro/internal/mtf"
	"repro/internal/native"
	"repro/internal/paging"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchRec is non-nil when BENCH_METRICS names an output file; report
// mirrors every benchmark metric into it so `go test -bench=.` leaves
// a machine-readable JSON snapshot next to the textual output.
var benchRec *telemetry.Recorder

func TestMain(m *testing.M) {
	out := os.Getenv("BENCH_METRICS")
	if out != "" {
		benchRec = telemetry.New()
		experiments.SetRecorder(benchRec)
	}
	code := m.Run()
	if out != "" && code == 0 {
		f, err := os.Create(out)
		if err == nil {
			// Counters and gauges only: benchdiff never reads spans,
			// which would otherwise be nearly all of the snapshot.
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(telemetry.Snapshot{Counters: benchRec.Counters(), Gauges: benchRec.Gauges()})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench metrics:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// report records a benchmark metric both on the benchmark (the usual
// -bench output) and, when BENCH_METRICS is set, as a gauge named
// after the running benchmark in the JSON snapshot.
func report(b *testing.B, v float64, unit string) {
	b.ReportMetric(v, unit)
	benchRec.SetGauge("bench."+b.Name()+"."+unit, v)
}

// allocTracked turns on -benchmem-style reporting for b and mirrors
// the measured bytes/op and allocs/op into the BENCH_METRICS snapshot,
// so allocation regressions gate through benchdiff like size metrics
// do. Call it (deferred) at the top of every leaf benchmark:
//
//	defer allocTracked(b)()
func allocTracked(b *testing.B) func() {
	b.ReportAllocs()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		if b.N > 0 {
			benchRec.SetGauge("bench."+b.Name()+".allocs/op",
				float64(m1.Mallocs-m0.Mallocs)/float64(b.N))
			benchRec.SetGauge("bench."+b.Name()+".bytes/op",
				float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N))
		}
	}
}

// modCache avoids recompiling the big workloads for every benchmark.
var modCache = map[string]*ir.Module{}
var progCache = map[string]*vm.Program{}
var objCache = map[string]*brisc.Object{}

func benchModule(b *testing.B, p workload.Profile) *ir.Module {
	b.Helper()
	if m, ok := modCache[p.Name]; ok {
		return m
	}
	m, err := cc.Compile(p.Name, workload.Generate(p))
	if err != nil {
		b.Fatal(err)
	}
	modCache[p.Name] = m
	return m
}

func benchProgram(b *testing.B, p workload.Profile) *vm.Program {
	b.Helper()
	if pr, ok := progCache[p.Name]; ok {
		return pr
	}
	pr, err := codegen.Generate(benchModule(b, p), codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	progCache[p.Name] = pr
	return pr
}

func benchObject(b *testing.B, p workload.Profile) *brisc.Object {
	b.Helper()
	if o, ok := objCache[p.Name]; ok {
		return o
	}
	o, err := brisc.Compress(benchProgram(b, p), brisc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	objCache[p.Name] = o
	return o
}

func kernelProgram(b *testing.B, name string) *vm.Program {
	b.Helper()
	if pr, ok := progCache["kernel-"+name]; ok {
		return pr
	}
	mod, err := cc.Compile(name, workload.Kernels()[name])
	if err != nil {
		b.Fatal(err)
	}
	pr, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	progCache["kernel-"+name] = pr
	return pr
}

// ---- T1: wire-code table (§3) ----

func benchTableWire(b *testing.B, p workload.Profile) {
	mod := benchModule(b, p)
	prog := benchProgram(b, p)
	conv := native.EncodeFixed(prog.Code)
	var wb []byte
	var err error
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb, err = wire.Compress(mod)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	gz := flatezip.Compress(conv)
	report(b, float64(len(conv)), "conv-bytes")
	report(b, float64(len(gz)), "gzip-bytes")
	report(b, float64(len(wb)), "wire-bytes")
	report(b, float64(len(conv))/float64(len(wb)), "factor")
}

func BenchmarkTableWireLcc(b *testing.B) { benchTableWire(b, workload.Lcc) }
func BenchmarkTableWireGcc(b *testing.B) { benchTableWire(b, workload.Gcc) }
func BenchmarkTableWireWep(b *testing.B) { benchTableWire(b, workload.Wep) }

// ---- T2: BRISC results table (§4) ----

func benchTableBrisc(b *testing.B, p workload.Profile) {
	prog := benchProgram(b, p)
	natBytes := native.VariableSize(prog.Code)
	var obj *brisc.Object
	var err error
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err = brisc.Compress(prog, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	objCache[p.Name] = obj
	sb := obj.Size()
	gz := len(flatezip.Compress(native.EncodeVariable(prog.Code)))
	report(b, float64(natBytes), "native-bytes")
	report(b, float64(sb.CodeSize()), "brisc-bytes")
	report(b, float64(sb.CodeSize())/float64(natBytes), "brisc-ratio")
	report(b, float64(gz)/float64(natBytes), "gzip-ratio")
	report(b, float64(sb.NumPatterns), "dict-patterns")
}

func BenchmarkTableBriscLcc(b *testing.B) { benchTableBrisc(b, workload.Lcc) }
func BenchmarkTableBriscGcc(b *testing.B) { benchTableBrisc(b, workload.Gcc) }
func BenchmarkTableBriscWep(b *testing.B) { benchTableBrisc(b, workload.Wep) }

// ---- T3: abstract-machine variants (§5) ----

func BenchmarkTableVariants(b *testing.B) {
	mod := benchModule(b, workload.Lcc)
	base, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	baseline := float64(native.VariableSize(base.Code))
	for _, v := range []struct {
		name string
		opt  codegen.Options
	}{
		{"RISC", codegen.Options{}},
		{"MinusImmediates", codegen.Options{NoImmediates: true}},
		{"MinusRegDisp", codegen.Options{NoRegDisp: true}},
		{"MinusBoth", codegen.Options{NoImmediates: true, NoRegDisp: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			prog, err := codegen.Generate(mod, v.opt)
			if err != nil {
				b.Fatal(err)
			}
			var obj *brisc.Object
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj, err = brisc.Compress(prog, brisc.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			report(b, float64(obj.Size().CodeSize())/baseline, "ratio-vs-native")
		})
	}
}

// ---- F1: the salt() worked example (§4) ----

func BenchmarkSaltExample(b *testing.B) {
	const saltSrc = `
int pepper(int a, int b) { return a + b; }
int salt(int j, int i) {
	if (j > 0) { pepper(i, j); j--; }
	return j;
}
int main(void) { return salt(3, 4); }`
	mod, err := cc.Compile("salt", saltSrc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dict := benchObject(b, workload.Gcc).LearnedDict()
	var obj *brisc.Object
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err = brisc.CompressWithDict(prog, dict, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	report(b, float64(native.VariableSize(prog.Code)), "native-bytes")
	report(b, float64(obj.Size().CodeBytes), "brisc-stream-bytes")
}

// ---- S1: interpretation penalty ----

func BenchmarkInterpPenalty(b *testing.B) {
	for _, name := range []string{"fib", "sieve", "matmul", "qsortk", "strops"} {
		prog := kernelProgram(b, name)
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/native", func(b *testing.B) {
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				m := vm.NewMachine(prog, 0, io.Discard)
				if _, err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
		b.Run(name+"/interp", func(b *testing.B) {
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				it := brisc.NewInterp(obj, 0, io.Discard)
				if _, err := it.Run(0); err != nil {
					b.Fatal(err)
				}
				it.Release()
			}
		})
	}
}

// ---- S2: JIT throughput ("2.5 MB/s on a 120 MHz Pentium") ----

// BenchmarkJITThroughput reports MB/s of produced code. Every JIT call
// decodes the whole image into tables of its own, so the timed loop
// includes the decode; the first call only sizes the output.
func BenchmarkJITThroughput(b *testing.B) {
	obj := benchObject(b, workload.Gcc)
	jp, err := brisc.JIT(obj)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(native.VariableSize(jp.Code)))
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := brisc.JIT(obj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseJIT is a client's load of a shipped BRISC object: parse
// the bytes into a fresh Object, then JIT it. It is gated (wep, the
// short-mode size) so that the JIT's allocations stay a fixed number of
// presized tables; lcc runs outside short mode. Parse makes most of
// allocs/op, so jit-allocs counts one JIT's own allocations on its own.
func BenchmarkParseJIT(b *testing.B) {
	profiles := []workload.Profile{workload.Wep}
	if !testing.Short() {
		profiles = append(profiles, workload.Lcc)
	}
	for _, p := range profiles {
		data := benchObject(b, p).Bytes()
		b.Run(p.Name, func(b *testing.B) {
			obj, err := brisc.Parse(data)
			if err != nil {
				b.Fatal(err)
			}
			jitAllocs := testing.AllocsPerRun(1, func() {
				if _, err := brisc.JIT(obj); err != nil {
					b.Fatal(err)
				}
			})
			b.SetBytes(int64(len(data)))
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj, err := brisc.Parse(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := brisc.JIT(obj); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			report(b, jitAllocs, "jit-allocs")
		})
	}
}

// ---- S5: JIT'd code speed ("within 1.08x of ... machine code") ----

func BenchmarkJITRunPenalty(b *testing.B) {
	for _, name := range []string{"fib", "sieve"} {
		prog := kernelProgram(b, name)
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		jp, err := brisc.JIT(obj)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/native", func(b *testing.B) {
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				m := vm.NewMachine(prog, 0, io.Discard)
				if _, err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
		b.Run(name+"/jitted", func(b *testing.B) {
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				m := vm.NewMachine(jp, 0, io.Discard)
				if _, err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
	}
}

// ---- S3: working-set reduction ----

func BenchmarkWorkingSet(b *testing.B) {
	p := workload.Lcc
	p.Name = "lcc-ws"
	p.MainSweep = true
	prog := benchProgram(b, p)
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	offsets := make([]int64, len(prog.Code)+1)
	for i, ins := range prog.Code {
		offsets[i+1] = offsets[i] + int64(native.VariableSize([]vm.Instr{ins}))
	}
	var natPages, briscPages int
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		natSim := paging.NewSimulator(paging.Config{PageSize: 1024})
		m := vm.NewMachine(prog, 0, io.Discard)
		m.Trace = func(pc int32) { natSim.Touch(offsets[pc], int(offsets[pc+1]-offsets[pc])) }
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		m.Release()
		briscSim := paging.NewSimulator(paging.Config{PageSize: 1024})
		it := brisc.NewInterp(obj, 0, io.Discard)
		it.Trace = func(off int32) { briscSim.Touch(int64(off), 2) }
		if _, err := it.Run(0); err != nil {
			b.Fatal(err)
		}
		it.Release()
		natPages = natSim.Result(1).PagesTouched
		briscPages = briscSim.Result(1).PagesTouched
	}
	b.StopTimer()
	report(b, float64(natPages), "native-pages")
	report(b, float64(briscPages), "brisc-pages")
	report(b, 100*(1-float64(briscPages)/float64(natPages)), "reduction-%")
}

// ---- S4: the intro paging scenario ----

func BenchmarkPagingScenario(b *testing.B) {
	p := workload.Lcc
	p.Name = "lcc-paging"
	p.MainSweep = true
	p.MainRounds = 40
	prog := benchProgram(b, p)
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	offsets := make([]int64, len(prog.Code)+1)
	for i, ins := range prog.Code {
		offsets[i+1] = offsets[i] + int64(native.VariableSize([]vm.Instr{ins}))
	}
	const page = 4096
	budget := (native.VariableSize(prog.Code)/page + 1) / 2 // half the native image
	var natMs, briscMs float64
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := paging.Config{PageSize: page, ResidentPages: budget}
		natSim := paging.NewSimulator(cfg)
		m := vm.NewMachine(prog, 0, io.Discard)
		m.Trace = func(pc int32) { natSim.Touch(offsets[pc], int(offsets[pc+1]-offsets[pc])) }
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		m.Release()
		briscSim := paging.NewSimulator(cfg)
		it := brisc.NewInterp(obj, 0, io.Discard)
		it.Trace = func(off int32) { briscSim.Touch(int64(off), 2) }
		if _, err := it.Run(0); err != nil {
			b.Fatal(err)
		}
		it.Release()
		natMs = natSim.Result(1).TotalTime / 1000
		briscMs = briscSim.Result(12).TotalTime / 1000
	}
	b.StopTimer()
	report(b, natMs, "native-ms")
	report(b, briscMs, "brisc-ms")
}

// BenchmarkXIP measures execute-in-place from the compressed page
// store: the wep workload runs demand-paged under two cache budgets,
// with the sequential layout and with the profile-driven layout from a
// traced run (the compscope-hot join). The fault count, miss rate, and
// peak residency are deterministic for a given (layout, budget) pair,
// so they gate through benchdiff; steps/s is the throughput price of
// paging and stays informational.
func BenchmarkXIP(b *testing.B) {
	obj := benchObject(b, workload.Wep)
	// Profile once: a traced full run yields the per-block execution
	// counts the layout pass consumes.
	counts := map[int32]int64{}
	{
		it := brisc.NewInterp(obj, 0, io.Discard)
		it.Trace = func(off int32) { counts[off]++ }
		if _, err := it.Run(0); err != nil {
			b.Fatal(err)
		}
		it.Release()
	}
	blockCounts := brisc.BlockCountsFromTrace(obj, counts)
	const pageSize = 256
	for _, layout := range []struct {
		name   string
		counts map[int32]int64
	}{
		{"seq", nil},
		{"hot", blockCounts},
	} {
		img, err := brisc.BuildXIP(obj, brisc.XIPOptions{PageSize: pageSize, BlockCounts: layout.counts})
		if err != nil {
			b.Fatal(err)
		}
		for _, cachePages := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/cache%d", layout.name, cachePages), func(b *testing.B) {
				var stats brisc.XIPStats
				var steps int64
				defer allocTracked(b)()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					it := brisc.NewInterp(obj, 0, io.Discard)
					if err := it.EnableXIP(img, cachePages, 0); err != nil {
						b.Fatal(err)
					}
					if _, err := it.Run(0); err != nil {
						b.Fatal(err)
					}
					stats = it.XIPStats()
					steps = it.Steps
					it.Release()
				}
				b.StopTimer()
				report(b, float64(stats.Faults), "faults")
				if acc := stats.Faults + stats.Hits; acc > 0 {
					report(b, float64(stats.Faults)/float64(acc)*100, "miss-pct")
				}
				report(b, float64(stats.PeakResidentBytes), "resident-bytes")
				report(b, float64(steps), "steps")
				if ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N); ns > 0 {
					report(b, float64(steps)/ns*1e9, "steps/s")
				}
			})
		}
	}
}

// ---- ablations the design sections call out ----

func BenchmarkWireAblations(b *testing.B) {
	mod := benchModule(b, workload.Wep)
	for _, v := range []struct {
		name string
		opt  wire.Options
	}{
		{"Full", wire.Options{}},
		{"NoMTF", wire.Options{NoMTF: true}},
		{"NoHuffman", wire.Options{NoHuffman: true}},
		{"ArithFinal", wire.Options{Final: wire.FinalArith}},
		{"NoFinal", wire.Options{Final: wire.FinalNone}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var out []byte
			var err error
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				out, err = wire.CompressOpts(mod, v.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(len(out)), "bytes")
		})
	}
}

// BenchmarkPeepholeAblation compares BRISC on plain versus
// peephole-optimized code (the paper's input came from an optimizing
// commercial back end).
func BenchmarkPeepholeAblation(b *testing.B) {
	plain := benchProgram(b, workload.Wep)
	optimized := codegen.Peephole(plain)
	for _, v := range []struct {
		name string
		prog *vm.Program
	}{{"Plain", plain}, {"Optimized", optimized}} {
		b.Run(v.name, func(b *testing.B) {
			var obj *brisc.Object
			var err error
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				obj, err = brisc.Compress(v.prog, brisc.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(native.VariableSize(v.prog.Code)), "native-bytes")
			report(b, float64(obj.Size().CodeSize()), "brisc-bytes")
		})
	}
}

// ---- pipeline parallelism (ROADMAP north star) ----

// batchCorpus caches the experiments corpus across benchmark runs. In
// short mode (make check runs these under -race) it holds only the
// cheap hand-written kernels.
var batchCorpus []experiments.BatchInput

func benchCorpus(b *testing.B) []experiments.BatchInput {
	b.Helper()
	if batchCorpus != nil {
		return batchCorpus
	}
	if testing.Short() {
		for _, name := range []string{"fib", "sieve", "matmul", "qsortk", "strops"} {
			prog := kernelProgram(b, name)
			mod, err := cc.Compile(name, workload.Kernels()[name])
			if err != nil {
				b.Fatal(err)
			}
			batchCorpus = append(batchCorpus, experiments.BatchInput{Name: name, Module: mod, Prog: prog})
		}
		return batchCorpus
	}
	corpus, err := experiments.CompileCorpus()
	if err != nil {
		b.Fatal(err)
	}
	batchCorpus = corpus
	return batchCorpus
}

// BenchmarkWireCompress times the wire encoder's per-stream fan-out at
// one and four workers; the compressed bytes are identical either way.
func BenchmarkWireCompress(b *testing.B) {
	p := workload.Gcc
	if testing.Short() {
		p = workload.Wep
	}
	mod := benchModule(b, p)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers%d", w), func(b *testing.B) {
			// One unmeasured warm-up op fills the scratch pools so the
			// gated allocs/op gauge pins the steady state, not cold-start
			// arena construction (noisy at -benchtime=1x).
			if _, err := wire.CompressOpts(mod, wire.Options{Workers: w}); err != nil {
				b.Fatal(err)
			}
			var out []byte
			var err error
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = wire.CompressOpts(mod, wire.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(len(out)), "bytes")
		})
	}
}

// BenchmarkBriscCompress times the BRISC candidate-scan/rewrite
// sharding at one and four workers.
func BenchmarkBriscCompress(b *testing.B) {
	prog := benchProgram(b, workload.Wep)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers%d", w), func(b *testing.B) {
			// Warm-up op: see BenchmarkWireCompress.
			if _, err := brisc.Compress(prog, brisc.Options{Workers: w}); err != nil {
				b.Fatal(err)
			}
			var obj *brisc.Object
			var err error
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj, err = brisc.Compress(prog, brisc.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(obj.Size().CodeSize()), "bytes")
		})
	}
}

// BenchmarkBatch compresses the whole experiments corpus through one
// shared pool, serially and at four workers, and records the measured
// wall-clock speedup in the BENCH_METRICS snapshot. The speedup only
// materializes with multiple CPUs; on a single-core host the two
// configurations degrade to the same serial schedule.
func BenchmarkBatch(b *testing.B) {
	corpus := benchCorpus(b)
	nsPerOp := map[int]float64{}
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("Workers%d", w), func(b *testing.B) {
			// Warm-up op: see BenchmarkWireCompress.
			if _, err := experiments.BatchCompress(corpus, w); err != nil {
				b.Fatal(err)
			}
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.BatchCompress(corpus, w); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp[w] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	if nsPerOp[1] > 0 && nsPerOp[4] > 0 {
		report(b, nsPerOp[1]/nsPerOp[4], "speedup-x4")
	}
}

// ---- serial fast-path micro-benchmarks (decode + dispatch) ----

// BenchmarkWireDecompress measures single-artifact decompression: the
// wire client's only job is to decode fast, so this is the headline
// MB/s (of compressed input) number for the serial hot path.
func BenchmarkWireDecompress(b *testing.B) {
	p := workload.Gcc
	if testing.Short() {
		p = workload.Wep
	}
	mod := benchModule(b, p)
	data, err := wire.Compress(mod)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("Workers%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecompressParallel(data, w, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			report(b, float64(len(data)), "bytes")
		})
	}
}

// BenchmarkWireLoad is a client's load of a shipped wire object up to
// runnable code: wire.Decompress, then codegen.Generate. The input has
// cold-start's shape — the first lcc-scale MainSweep image the
// benchmark's cold-start workload draws at seed 103 — or wep under
// -short, and MB/s counts wire input.
func BenchmarkWireLoad(b *testing.B) {
	p := workload.Wep
	if !testing.Short() {
		p = workload.Lcc
		p.Name = "lcc-sweep"
		p.Seed = rand.New(rand.NewSource(103)).Int63()
		p.MainSweep, p.MainRounds = true, 1
	}
	data, err := wire.Compress(benchModule(b, p))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	defer allocTracked(b)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod, err := wire.Decompress(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codegen.Generate(mod, codegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// rawDecodeStream builds the deterministic synthetic symbol stream the
// raw-decode micro-benchmarks share: mostly small recency-friendly
// values with a 4096-wide tail so both the array and sliding MTF paths
// and the deep Huffman codes get exercised.
func rawDecodeStream() []int32 {
	const n = 1 << 16
	syms := make([]int32, n)
	seed := uint32(0x9e3779b9)
	for i := range syms {
		seed = seed*1664525 + 1013904223
		v := seed >> 16
		if i%5 == 0 {
			syms[i] = int32(v % 4096)
		} else {
			syms[i] = int32(v % 37)
		}
	}
	return syms
}

// bitsSink defeats dead-code elimination in BenchmarkRawDecode/Bits.
var bitsSink uint64

// BenchmarkRawDecode isolates the serial decode primitives: Huffman
// symbol decoding, MTF stream decoding, and raw bit extraction.
func BenchmarkRawDecode(b *testing.B) {
	syms := rawDecodeStream()
	indices, firsts := mtf.EncodeStream(syms)
	max := 0
	for _, s := range indices {
		if s > max {
			max = s
		}
	}
	freqs := make([]int64, max+1)
	for _, s := range indices {
		freqs[s]++
	}
	code, err := huffman.Build(freqs, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	for _, s := range indices {
		if err := code.Encode(bw, s); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	coded := buf.Bytes()

	b.Run("Huffman", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		defer allocTracked(b)()
		for i := 0; i < b.N; i++ {
			br := bitio.NewReader(bytes.NewReader(coded))
			for j := 0; j < len(indices); j++ {
				if _, err := code.Decode(br); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b, float64(len(indices)), "symbols")
	})
	b.Run("MTF", func(b *testing.B) {
		defer allocTracked(b)()
		for i := 0; i < b.N; i++ {
			if _, ok := mtf.DecodeStream(indices, firsts); !ok {
				b.Fatal("mtf decode failed")
			}
		}
		report(b, float64(len(indices)), "symbols")
	})
	b.Run("Bits", func(b *testing.B) {
		b.SetBytes(int64(len(coded)))
		defer allocTracked(b)()
		for i := 0; i < b.N; i++ {
			br := bitio.NewReader(bytes.NewReader(coded))
			var sum uint64
			for {
				v, err := br.ReadBits(13)
				if err != nil {
					break
				}
				sum += v
			}
			bitsSink = sum
		}
	})
}

// BenchmarkInterpDispatch measures the BRISC interpreter's dispatch
// loop: full kernel runs, reported in executed steps per second. Each
// op builds a fresh Interp, so it also pays that Interp's whole-image
// decode and the mapping of its 4 MiB demand-zero memory. The step count itself is deterministic and
// gates in benchdiff; steps/s is timing-derived and excluded.
func BenchmarkInterpDispatch(b *testing.B) {
	for _, name := range []string{"sieve", "matmul"} {
		prog := kernelProgram(b, name)
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			defer allocTracked(b)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := brisc.NewInterp(obj, 0, io.Discard)
				if _, err := it.Run(0); err != nil {
					b.Fatal(err)
				}
				steps = it.Steps
				it.Release()
			}
			b.StopTimer()
			report(b, float64(steps), "steps")
			if ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N); ns > 0 {
				report(b, float64(steps)/ns*1e9, "steps/s")
			}
		})
	}
}

// BenchmarkDispatchSteady measures steady-state dispatch: the five
// kernels on the VM, the whole-image BRISC interpreter, and XIP with a
// budget of every page. Each engine is allocated once and Reset per op,
// so neither machine memory nor whole-image decode is set up inside the
// loop, as it is in BenchmarkInterpDispatch and BenchmarkXIP. Reset
// drops XIP's resident set, so each XIP op faults every page it
// touches once. steps/s is timing-derived, so this benchmark is not
// gated.
func BenchmarkDispatchSteady(b *testing.B) {
	for _, name := range []string{"fib", "sieve", "matmul", "qsortk", "strops"} {
		prog := kernelProgram(b, name)
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		img, err := brisc.BuildXIP(obj, brisc.XIPOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m := vm.NewMachine(prog, 0, io.Discard)
		it := brisc.NewInterp(obj, 0, io.Discard)
		xit := brisc.NewInterp(obj, 0, io.Discard)
		if err := xit.EnableXIP(img, img.NumPages(), 0); err != nil {
			b.Fatal(err)
		}
		runInterp := func(it *brisc.Interp) func() (int64, error) {
			return func() (int64, error) {
				it.Reset()
				_, err := it.Run(0)
				return it.Steps, err
			}
		}
		for _, e := range []struct {
			engine string
			run    func() (int64, error)
		}{
			{"vm", func() (int64, error) {
				m.Reset()
				_, err := m.Run(0)
				return m.Steps, err
			}},
			{"brisc", runInterp(it)},
			{"xip", runInterp(xit)},
		} {
			b.Run(e.engine+"/"+name, func(b *testing.B) {
				var steps int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := e.run()
					if err != nil {
						b.Fatal(err)
					}
					steps = n
				}
				b.StopTimer()
				if ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N); ns > 0 {
					report(b, float64(steps)/ns*1e9, "steps/s")
				}
			})
		}
	}
}

func BenchmarkBriscAblations(b *testing.B) {
	prog := benchProgram(b, workload.Wep)
	for _, v := range []struct {
		name string
		opt  brisc.Options
	}{
		{"Full", brisc.Options{}},
		{"NoCombine", brisc.Options{NoCombine: true}},
		{"NoSpecialize", brisc.Options{NoSpecialize: true}},
		{"AbundantMemory", brisc.Options{AbundantMemory: true}},
		{"NoEPI", brisc.Options{NoEPI: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var obj *brisc.Object
			var err error
			defer allocTracked(b)()
			for i := 0; i < b.N; i++ {
				obj, err = brisc.Compress(prog, v.opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, float64(obj.Size().CodeSize()), "bytes")
		})
	}
}
