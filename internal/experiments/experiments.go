// Package experiments regenerates every table and measurement in the
// paper's evaluation. Each experiment returns structured rows plus a
// formatted rendering; cmd/experiments prints them and the repository's
// root benchmarks time them. See DESIGN.md §4 for the experiment index
// and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/native"
	"repro/internal/paging"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// rec is the package recorder: when set (cmd/experiments -metrics-out,
// the root benchmarks), every table run emits spans and metrics
// through it instead of keeping raw time.Now deltas to itself.
var rec *telemetry.Recorder

// SetRecorder installs the telemetry recorder the experiment runners
// report through. nil (the default) disables reporting.
func SetRecorder(r *telemetry.Recorder) { rec = r }

// Recorder returns the currently installed recorder (may be nil).
func Recorder() *telemetry.Recorder { return rec }

// measureNamed times f like measure and publishes the per-call median
// as a span and a histogram observation under the given name. An
// error from f aborts the measurement and is reported to the caller
// rather than panicking mid-experiment.
func measureNamed(name string, f func() error) (time.Duration, error) {
	sp := rec.StartSpan("experiments.measure", telemetry.String("what", name))
	d, err := measure(f)
	sp.SetAttr(telemetry.Int("median_ns", d.Nanoseconds()))
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("experiments: measuring %s: %w", name, err)
	}
	rec.Observe("experiments.measure."+name+".median_ns", float64(d.Nanoseconds()))
	return d, nil
}

// buildNative compiles one workload preset to a linked VM program.
func buildNative(p workload.Profile, opt codegen.Options) (*vm.Program, error) {
	mod, err := cc.Compile(p.Name, workload.Generate(p))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", p.Name, err)
	}
	return codegen.Generate(mod, opt)
}

// ---- T1: the wire-code table (§3) ----

// WireRow is one row of the paper's wire-format table.
type WireRow struct {
	Benchmark    string
	Conventional int // SPARC-like fixed encoding bytes
	Gzipped      int // flatezip of the conventional bytes
	WireCode     int // the paper's wire format
	Factor       float64
}

// WireTable regenerates the §3 table for the three benchmark scales.
func WireTable() ([]WireRow, error) {
	sp := rec.StartSpan("experiments.wire_table")
	defer sp.End()
	var rows []WireRow
	for _, p := range workload.Presets() {
		mod, err := cc.Compile(p.Name, workload.Generate(p))
		if err != nil {
			return nil, err
		}
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			return nil, err
		}
		conv := native.EncodeFixed(prog.Code)
		gz := flatezip.Compress(conv)
		wb, err := wire.Compress(mod)
		if err != nil {
			return nil, err
		}
		row := WireRow{
			Benchmark:    p.Name,
			Conventional: len(conv),
			Gzipped:      len(gz),
			WireCode:     len(wb),
			Factor:       float64(len(conv)) / float64(len(wb)),
		}
		rec.SetGauge("experiments.wire.factor."+p.Name, row.Factor)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatWireTable renders T1 like the paper's table.
func FormatWireTable(rows []WireRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wire-code table (paper §3; paper factors: lcc 4.9x, gcc 4.8x, wep 3.8x)\n")
	fmt.Fprintf(&sb, "%-8s %14s %10s %10s %8s\n", "bench", "conventional", "gzipped", "wire", "factor")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %14d %10d %10d %7.2fx\n",
			r.Benchmark, r.Conventional, r.Gzipped, r.WireCode, r.Factor)
	}
	return sb.String()
}

// ---- T2: the BRISC results table (§4) ----

// BriscRow is one row of the paper's BRISC results table. Sizes are
// relative to the native (x86-like variable) encoding, normalized to
// 1.0 as in the paper; runtimes are relative to native execution.
type BriscRow struct {
	Benchmark    string
	NativeBytes  int
	GzipRatio    float64 // gzipped native / native
	BriscRatio   float64 // BRISC code size / native
	JITMBps      float64 // JIT throughput, MB of produced code per second
	JITRunRatio  float64 // (JIT + run) time / native run time; 0 if not timed
	InterpRatio  float64 // interpreted time / native run time; 0 if not timed
	DictPatterns int
}

// BriscSizeRow computes the size columns for one program.
func briscSizeRow(name string, prog *vm.Program, opt brisc.Options) (BriscRow, *brisc.Object, error) {
	nat := native.EncodeVariable(prog.Code)
	gz := flatezip.Compress(nat)
	obj, err := brisc.CompressTraced(prog, opt, rec)
	if err != nil {
		return BriscRow{}, nil, err
	}
	sb := obj.Size()
	mbps, err := measureJITThroughput(name, obj)
	if err != nil {
		return BriscRow{}, nil, err
	}
	row := BriscRow{
		Benchmark:    name,
		NativeBytes:  len(nat),
		GzipRatio:    float64(len(gz)) / float64(len(nat)),
		BriscRatio:   float64(sb.CodeSize()) / float64(len(nat)),
		DictPatterns: sb.NumPatterns,
		JITMBps:      mbps,
	}
	rec.SetGauge("experiments.brisc.ratio."+name, row.BriscRatio)
	return row, obj, nil
}

// measureJITThroughput times brisc.JIT and reports MB of produced
// (variable-encoded) code per second. Every JIT call decodes the whole
// image into tables of its own, so the time includes the decode; the
// untimed first call only sizes the output.
func measureJITThroughput(name string, obj *brisc.Object) (float64, error) {
	jp, err := brisc.JIT(obj)
	if err != nil {
		return 0, err
	}
	outBytes := native.VariableSize(jp.Code)
	elapsed, err := measureNamed(name+".jit", func() error {
		_, err := brisc.JIT(obj)
		return err
	})
	if err != nil {
		return 0, err
	}
	mbps := float64(outBytes) / 1e6 / elapsed.Seconds()
	rec.SetGauge("experiments.jit_mbps."+name, mbps)
	return mbps, nil
}

// measure times f for a stable reading. It finds a repetition count
// that fills a window of at least 30 ms, times five such windows (the
// calibrating one included) and returns the median per-call time, so a
// window disturbed by a GC cycle or a noisy neighbour does not set the
// reading. The first error aborts immediately.
func measure(f func() error) (time.Duration, error) {
	const (
		minDuration = 30 * time.Millisecond
		windows     = 5
	)
	window := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	n := 1
	elapsed, err := window(n)
	for ; err == nil && elapsed < minDuration; elapsed, err = window(n) {
		if elapsed <= 0 {
			n *= 100
		} else {
			n *= int(minDuration/elapsed) + 1
		}
	}
	if err != nil {
		return 0, err
	}
	perCall := []time.Duration{elapsed / time.Duration(n)}
	for len(perCall) < windows {
		d, err := window(n)
		if err != nil {
			return 0, err
		}
		perCall = append(perCall, d/time.Duration(n))
	}
	slices.Sort(perCall)
	return perCall[windows/2], nil
}

// BriscTable regenerates the §4 results table. Size columns come from
// the three workload scales; runtime columns come from the kernels
// (which run long enough to time). withTimings=false skips the slow
// runtime measurements (useful in tests).
func BriscTable(withTimings bool) ([]BriscRow, error) {
	sp := rec.StartSpan("experiments.brisc_table")
	defer sp.End()
	var rows []BriscRow
	for _, p := range append(workload.Presets(), workload.Word) {
		prog, err := buildNative(p, codegen.Options{})
		if err != nil {
			return nil, err
		}
		row, _, err := briscSizeRow(p.Name, prog, brisc.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	kernels := workload.Kernels()
	for _, name := range []string{"fib", "sieve", "matmul", "qsortk", "strops"} {
		src := kernels[name]
		mod, err := cc.Compile(name, src)
		if err != nil {
			return nil, err
		}
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			return nil, err
		}
		row, obj, err := briscSizeRow(name, prog, brisc.Options{})
		if err != nil {
			return nil, err
		}
		if withTimings {
			nativeTime, err := measureNamed(name+".native_run", func() error { return runVM(prog) })
			if err != nil {
				return nil, err
			}
			jitTime, err := measureNamed(name+".jit_run", func() error {
				jp, err := brisc.JIT(obj)
				if err != nil {
					return err
				}
				return runVM(jp)
			})
			if err != nil {
				return nil, err
			}
			interpTime, err := measureNamed(name+".interp_run", func() error { return runInterp(obj) })
			if err != nil {
				return nil, err
			}
			row.JITRunRatio = jitTime.Seconds() / nativeTime.Seconds()
			row.InterpRatio = interpTime.Seconds() / nativeTime.Seconds()
			rec.SetGauge("experiments.interp_penalty."+name, row.InterpRatio)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runVM(p *vm.Program) error {
	m := vm.NewMachine(p, 0, io.Discard)
	defer m.Release()
	_, err := m.Run(0)
	return err
}

func runInterp(o *brisc.Object) error {
	it := brisc.NewInterp(o, 0, io.Discard)
	defer it.Release()
	_, err := it.Run(0)
	return err
}

// FormatBriscTable renders T2.
func FormatBriscTable(rows []BriscRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "BRISC results table (paper §4; native code size normalized to 1.0)\n")
	fmt.Fprintf(&sb, "paper shape: BRISC ~= gzip ~= 0.5, JIT 2.5MB/s on a 120MHz Pentium,\n")
	fmt.Fprintf(&sb, "JIT'd runtime 1.08x native, interpreted ~12x native\n")
	fmt.Fprintf(&sb, "%-8s %8s %6s %6s %9s %8s %8s %6s\n",
		"bench", "native B", "gzip", "BRISC", "JIT MB/s", "run-jit", "interp", "dict")
	for _, r := range rows {
		jit, interp := "-", "-"
		if r.JITRunRatio > 0 {
			jit = fmt.Sprintf("%.2fx", r.JITRunRatio)
		}
		if r.InterpRatio > 0 {
			interp = fmt.Sprintf("%.1fx", r.InterpRatio)
		}
		fmt.Fprintf(&sb, "%-8s %8d %6.2f %6.2f %9.1f %8s %8s %6d\n",
			r.Benchmark, r.NativeBytes, r.GzipRatio, r.BriscRatio, r.JITMBps, jit, interp, r.DictPatterns)
	}
	return sb.String()
}

// ---- T3: abstract-machine variants (§5) ----

// VariantRow is one row of the "Reducing RISC abstract machines" table.
type VariantRow struct {
	Variant string
	Ratio   float64 // BRISC compressed size / native (variable) size
}

// VariantsTable regenerates the §5 table on the gcc-scale workload.
// The paper reports RISC 0.54, −immediates 0.56, −register-
// displacement 0.57, −both 0.59. The denominator is the full-RISC
// variant's native size, as in the paper (one fixed native baseline).
func VariantsTable(profile workload.Profile) ([]VariantRow, error) {
	mod, err := cc.Compile(profile.Name, workload.Generate(profile))
	if err != nil {
		return nil, err
	}
	base, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		return nil, err
	}
	baseline := float64(native.VariableSize(base.Code))

	variants := []struct {
		name string
		opt  codegen.Options
	}{
		{"RISC", codegen.Options{}},
		{"minus immediates", codegen.Options{NoImmediates: true}},
		{"minus register-displacement", codegen.Options{NoRegDisp: true}},
		{"minus both", codegen.Options{NoImmediates: true, NoRegDisp: true}},
	}
	var rows []VariantRow
	for _, v := range variants {
		prog, err := codegen.Generate(mod, v.opt)
		if err != nil {
			return nil, err
		}
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, VariantRow{
			Variant: v.name,
			Ratio:   float64(obj.Size().CodeSize()) / baseline,
		})
	}
	return rows, nil
}

// FormatVariantsTable renders T3.
func FormatVariantsTable(rows []VariantRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Abstract machine variants (paper §5: 0.54 / 0.56 / 0.57 / 0.59)\n")
	fmt.Fprintf(&sb, "%-30s %s\n", "variant", "compressed/native")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-30s %17.2f\n", r.Variant, r.Ratio)
	}
	return sb.String()
}

// ---- F1: the salt() worked example (§4) ----

// SaltResult reports the worked-example measurements.
type SaltResult struct {
	OriginalBytes      int // salt+pepper functions, variable native encoding
	SelfCompressed     int // BRISC stream bytes with salt's own (empty) dictionary
	SelfLearned        int // patterns learned compressing salt alone
	WithGccDict        int // BRISC stream bytes using the gcc-trained dictionary
	GccDictPatternsHit int // learned patterns the encoding actually used
}

const saltSource = `
int pepper(int a, int b) { return a + b; }
int salt(int j, int i) {
	if (j > 0) {
		pepper(i, j);
		j--;
	}
	return j;
}
int main(void) { return salt(3, 4); }
`

// SaltExample reproduces the paper's closing example of §4: compressing
// the small salt() program alone learns (almost) nothing, because every
// candidate's table cost W outweighs its savings; applying a dictionary
// trained on the gcc-scale benchmark compresses it substantially
// (paper: 60 bytes -> 17 bytes).
func SaltExample() (SaltResult, error) {
	var res SaltResult
	mod, err := cc.Compile("salt", saltSource)
	if err != nil {
		return res, err
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		return res, err
	}
	res.OriginalBytes = native.VariableSize(prog.Code)

	self, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		return res, err
	}
	res.SelfCompressed = self.Size().CodeBytes
	res.SelfLearned = self.Size().NumPatterns

	gccProg, err := buildNative(workload.Gcc, codegen.Options{})
	if err != nil {
		return res, err
	}
	gccObj, err := brisc.Compress(gccProg, brisc.Options{})
	if err != nil {
		return res, err
	}
	withDict, err := brisc.CompressWithDict(prog, gccObj.LearnedDict(), brisc.Options{})
	if err != nil {
		return res, err
	}
	res.WithGccDict = withDict.Size().CodeBytes
	res.GccDictPatternsHit = withDict.Size().NumPatterns
	return res, nil
}

// FormatSaltExample renders F1.
func FormatSaltExample(r SaltResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Worked example (paper §4: salt() 60 bytes -> 17 bytes with gcc dictionary)\n")
	fmt.Fprintf(&sb, "native (variable) encoding:        %4d bytes\n", r.OriginalBytes)
	fmt.Fprintf(&sb, "BRISC, own dictionary:             %4d bytes (%d patterns learned)\n",
		r.SelfCompressed, r.SelfLearned)
	fmt.Fprintf(&sb, "BRISC, gcc-trained dictionary:     %4d bytes (%d trained patterns used)\n",
		r.WithGccDict, r.GccDictPatternsHit)
	return sb.String()
}

// ---- S3/S4: working set and the paging scenario ----

// WorkingSetResult compares code pages touched by native execution and
// in-place BRISC interpretation of the same program.
type WorkingSetResult struct {
	Program      string
	NativePages  int
	BriscPages   int
	ReductionPct float64
}

// sweepProfile returns profile modified so main calls every mid
// function rounds times — the whole-image access pattern of the
// paper's startup/paging observations.
func sweepProfile(p workload.Profile, rounds int) workload.Profile {
	p.Name = p.Name + "-sweep"
	p.MainSweep = true
	p.MainRounds = rounds
	return p
}

// traceNative runs prog natively, feeding instruction fetch addresses
// (through the variable encoding's layout) to sim.
func traceNative(prog *vm.Program, sim *paging.Simulator) error {
	offsets := make([]int64, len(prog.Code)+1)
	for i, ins := range prog.Code {
		offsets[i+1] = offsets[i] + int64(native.VariableSize([]vm.Instr{ins}))
	}
	m := vm.NewMachine(prog, 0, io.Discard)
	defer m.Release()
	m.Trace = func(pc int32) {
		sim.Touch(offsets[pc], int(offsets[pc+1]-offsets[pc]))
	}
	_, err := m.Run(0)
	return err
}

// traceBrisc interprets obj in place, feeding unit byte offsets to sim.
func traceBrisc(obj *brisc.Object, sim *paging.Simulator) error {
	it := brisc.NewInterp(obj, 0, io.Discard)
	defer it.Release()
	it.Trace = func(off int32) { sim.Touch(int64(off), 2) }
	_, err := it.Run(0)
	return err
}

// WorkingSet measures S3 ("cutting working set size by over 40%") on a
// sweep workload: main calls every function once, as in the paper's
// observation that "many functions are called just once".
func WorkingSet(profile workload.Profile) (WorkingSetResult, error) {
	var res WorkingSetResult
	p := sweepProfile(profile, 1)
	res.Program = p.Name
	prog, err := buildNative(p, codegen.Options{})
	if err != nil {
		return res, err
	}
	const page = 1024
	natSim := paging.NewSimulator(paging.Config{PageSize: page})
	if err := traceNative(prog, natSim); err != nil {
		return res, err
	}
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		return res, err
	}
	briscSim := paging.NewSimulator(paging.Config{PageSize: page})
	if err := traceBrisc(obj, briscSim); err != nil {
		return res, err
	}
	res.NativePages = natSim.Result(1).PagesTouched
	res.BriscPages = briscSim.Result(1).PagesTouched
	res.ReductionPct = 100 * (1 - float64(res.BriscPages)/float64(res.NativePages))
	return res, nil
}

// FormatWorkingSet renders S3 rows.
func FormatWorkingSet(rows []WorkingSetResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Working-set reduction (paper: BRISC cuts working set by over 40%%)\n")
	fmt.Fprintf(&sb, "%-12s %13s %12s %10s\n", "program", "native pages", "BRISC pages", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %13d %12d %9.0f%%\n", r.Program, r.NativePages, r.BriscPages, r.ReductionPct)
	}
	return sb.String()
}

// PagingRow is one memory budget in the intro-scenario sweep.
type PagingRow struct {
	ResidentKB   int
	NativeTimeMs float64
	BriscTimeMs  float64
}

// PagingScenario reproduces the intro's total-time claim on a cyclic
// sweep workload (main calls every function, repeatedly): with tight
// memory the native code thrashes while the half-sized BRISC image
// stays resident and the 12x interpretation penalty is repaid; with
// ample memory only cold faults remain and native CPU speed wins.
func PagingScenario(profile workload.Profile, interpPenalty float64) ([]PagingRow, error) {
	prog, err := buildNative(sweepProfile(profile, 40), codegen.Options{})
	if err != nil {
		return nil, err
	}
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		return nil, err
	}
	const page = 4096
	nativeBytes := native.VariableSize(prog.Code)
	nativePages := (nativeBytes + page - 1) / page

	// Budgets spanning well below the BRISC image to above the native
	// image.
	budgets := []int{
		nativePages / 8, nativePages / 4, nativePages / 2,
		nativePages * 3 / 4, nativePages, nativePages * 3 / 2,
	}
	var rows []PagingRow
	for _, b := range budgets {
		if b < 2 {
			b = 2
		}
		cfg := paging.Config{PageSize: page, ResidentPages: b}
		natSim := paging.NewSimulator(cfg)
		if err := traceNative(prog, natSim); err != nil {
			return nil, err
		}
		briscSim := paging.NewSimulator(cfg)
		if err := traceBrisc(obj, briscSim); err != nil {
			return nil, err
		}
		rows = append(rows, PagingRow{
			ResidentKB:   b * page / 1024,
			NativeTimeMs: natSim.Result(1).TotalTime / 1000,
			BriscTimeMs:  briscSim.Result(interpPenalty).TotalTime / 1000,
		})
	}
	return rows, nil
}

// FormatPaging renders S4.
func FormatPaging(program string, rows []PagingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Paging scenario, program %s (intro claim: with memory tight,\n", program)
	fmt.Fprintf(&sb, "compressed+interpreted code beats paged native on total time)\n")
	fmt.Fprintf(&sb, "%-11s %14s %14s %8s\n", "resident KB", "native (ms)", "BRISC (ms)", "winner")
	for _, r := range rows {
		winner := "native"
		if r.BriscTimeMs < r.NativeTimeMs {
			winner = "BRISC"
		}
		fmt.Fprintf(&sb, "%-11d %14.1f %14.1f %8s\n", r.ResidentKB, r.NativeTimeMs, r.BriscTimeMs, winner)
	}
	return sb.String()
}

// ---- S5: execute-in-place from the page store ----

// XIPRow is one (layout, cache budget) point in the execute-in-place
// sweep: the workload runs demand-paged from the compressed page store
// with a bounded predecode cache.
type XIPRow struct {
	Layout      string // "seq" (image order) or "hot" (profile-driven)
	CachePages  int
	Faults      int64
	MissPct     float64
	PeakKB      float64
	StepsPerSec float64
}

// XIPTable measures demand-paged execution on one workload: page
// faults, miss rate, and peak decoded residency across cache budgets,
// with the sequential layout and with the profile-driven layout built
// from a traced run (the same join `compscope hot -json` emits). The
// claim under test: profile-driven packing keeps hot blocks co-resident
// and strictly reduces faults at equal budget.
func XIPTable(profile workload.Profile) ([]XIPRow, error) {
	sp := rec.StartSpan("experiments.xip", telemetry.String("program", profile.Name))
	defer sp.End()
	prog, err := buildNative(profile, codegen.Options{})
	if err != nil {
		return nil, err
	}
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		return nil, err
	}
	// Profile once: per-block execution counts from a traced full run.
	counts := map[int32]int64{}
	it := brisc.NewInterp(obj, 0, io.Discard)
	it.Trace = func(off int32) { counts[off]++ }
	_, err = it.Run(0)
	it.Release()
	if err != nil {
		return nil, err
	}
	blockCounts := brisc.BlockCountsFromTrace(obj, counts)

	const pageSize = 256
	var rows []XIPRow
	for _, layout := range []struct {
		name   string
		counts map[int32]int64
	}{{"seq", nil}, {"hot", blockCounts}} {
		img, err := brisc.BuildXIP(obj, brisc.XIPOptions{PageSize: pageSize, BlockCounts: layout.counts})
		if err != nil {
			return nil, err
		}
		for _, cachePages := range []int{2, 4, 8, 16} {
			var stats brisc.XIPStats
			var steps int64
			d, err := measureNamed(fmt.Sprintf("xip.%s.%s.cache%d", profile.Name, layout.name, cachePages), func() error {
				it := brisc.NewInterp(obj, 0, io.Discard)
				defer it.Release()
				if err := it.EnableXIP(img, cachePages, 0); err != nil {
					return err
				}
				if _, err := it.Run(0); err != nil {
					return err
				}
				stats = it.XIPStats()
				steps = it.Steps
				return nil
			})
			if err != nil {
				return nil, err
			}
			row := XIPRow{
				Layout:     layout.name,
				CachePages: cachePages,
				Faults:     stats.Faults,
				PeakKB:     float64(stats.PeakResidentBytes) / 1024,
			}
			if acc := stats.Faults + stats.Hits; acc > 0 {
				row.MissPct = float64(stats.Faults) / float64(acc) * 100
			}
			if d > 0 {
				row.StepsPerSec = float64(steps) / d.Seconds()
			}
			rec.SetGauge(fmt.Sprintf("experiments.xip.%s.cache%d.faults", layout.name, cachePages), float64(stats.Faults))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatXIP renders the execute-in-place sweep.
func FormatXIP(program string, rows []XIPRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Execute-in-place, program %s (profile-driven layout packs hot\n", program)
	fmt.Fprintf(&sb, "blocks onto shared pages, cutting demand faults at equal budget)\n")
	fmt.Fprintf(&sb, "%-7s %11s %8s %9s %9s %12s\n", "layout", "cache pages", "faults", "miss", "peak KB", "steps/s")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-7s %11d %8d %8.2f%% %9.1f %12.0f\n",
			r.Layout, r.CachePages, r.Faults, r.MissPct, r.PeakKB, r.StepsPerSec)
	}
	return sb.String()
}

// ---- S1: interpretation penalty ----

// PenaltyRow reports interpreted-vs-native time for one kernel.
type PenaltyRow struct {
	Kernel  string
	Penalty float64
}

// InterpPenalty measures S1 ("a typical 12x time penalty") across the
// kernels.
func InterpPenalty() ([]PenaltyRow, error) {
	sp := rec.StartSpan("experiments.interp_penalty")
	defer sp.End()
	var rows []PenaltyRow
	kernels := workload.Kernels()
	for _, name := range []string{"fib", "sieve", "matmul", "qsortk", "strops"} {
		mod, err := cc.Compile(name, kernels[name])
		if err != nil {
			return nil, err
		}
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			return nil, err
		}
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			return nil, err
		}
		nativeTime, err := measureNamed(name+".native_run", func() error { return runVM(prog) })
		if err != nil {
			return nil, err
		}
		interpTime, err := measureNamed(name+".interp_run", func() error { return runInterp(obj) })
		if err != nil {
			return nil, err
		}
		penalty := interpTime.Seconds() / nativeTime.Seconds()
		rec.SetGauge("experiments.interp_penalty."+name, penalty)
		rows = append(rows, PenaltyRow{Kernel: name, Penalty: penalty})
	}
	return rows, nil
}

// FormatPenalty renders S1.
func FormatPenalty(rows []PenaltyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Interpretation penalty (paper: typical 12x)\n")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %6.1fx\n", r.Kernel, r.Penalty)
		sum += r.Penalty
	}
	fmt.Fprintf(&sb, "%-8s %6.1fx\n", "mean", sum/float64(len(rows)))
	return sb.String()
}

// ---- S0: the intro's call-frequency profile ----

// CallProfileResult summarizes how often functions are entered during
// one run — the paper's motivating observation: "Another profile shows
// that many functions are called just once, so reduced paging could
// pay for their interpretation overhead."
type CallProfileResult struct {
	Program         string
	Functions       int
	NeverCalled     int
	CalledOnce      int
	CalledTwicePlus int
}

// CallProfile runs a sweep workload and counts function entries.
func CallProfile(profile workload.Profile) (CallProfileResult, error) {
	var res CallProfileResult
	p := sweepProfile(profile, 1)
	res.Program = p.Name
	prog, err := buildNative(p, codegen.Options{})
	if err != nil {
		return res, err
	}
	entryCount := map[int32]int{}
	m := vm.NewMachine(prog, 0, io.Discard)
	defer m.Release()
	m.Trace = func(pc int32) {
		ins := prog.Code[pc]
		if ins.Op == vm.CALL {
			entryCount[ins.Target]++
		}
	}
	if _, err := m.Run(0); err != nil {
		return res, err
	}
	for _, f := range prog.Funcs {
		res.Functions++
		switch entryCount[int32(f.Entry)] {
		case 0:
			res.NeverCalled++
		case 1:
			res.CalledOnce++
		default:
			res.CalledTwicePlus++
		}
	}
	return res, nil
}

// FormatCallProfile renders S0.
func FormatCallProfile(r CallProfileResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Call-frequency profile, %s (intro: \"many functions are called just once\")\n", r.Program)
	fmt.Fprintf(&sb, "functions: %d; never called: %d; called once: %d; called 2+: %d\n",
		r.Functions, r.NeverCalled, r.CalledOnce, r.CalledTwicePlus)
	pct := 100 * float64(r.CalledOnce+r.NeverCalled) / float64(r.Functions)
	fmt.Fprintf(&sb, "%.0f%% of functions execute at most once in this run\n", pct)
	return sb.String()
}

// RunAll executes every experiment and writes the report to w.
// quick skips the slow timing columns.
func RunAll(w io.Writer, quick bool) error {
	wr, err := WireTable()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatWireTable(wr))

	br, err := BriscTable(!quick)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatBriscTable(br))

	profile := workload.Gcc
	if quick {
		profile = workload.Wep
	}
	vr, err := VariantsTable(profile)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatVariantsTable(vr))

	sr, err := SaltExample()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatSaltExample(sr))

	wsProfiles := []workload.Profile{workload.Wep, workload.Lcc}
	if !quick {
		wsProfiles = append(wsProfiles, workload.Gcc)
	}
	var wsRows []WorkingSetResult
	for _, p := range wsProfiles {
		r, err := WorkingSet(p)
		if err != nil {
			return err
		}
		wsRows = append(wsRows, r)
	}
	fmt.Fprintln(w, FormatWorkingSet(wsRows))

	pr, err := PagingScenario(workload.Lcc, 12)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatPaging("lcc-sweep", pr))

	xr, err := XIPTable(workload.Wep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatXIP(workload.Wep.Name, xr))

	cp, err := CallProfile(workload.Lcc)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, FormatCallProfile(cp))

	if !quick {
		ip, err := InterpPenalty()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatPenalty(ip))
	}
	return nil
}

// Buffer runs all experiments into a string (test helper).
func Buffer(quick bool) (string, error) {
	var buf bytes.Buffer
	err := RunAll(&buf, quick)
	return buf.String(), err
}
