// Command perfbench is the repository's benchmark. It drives every layer
// of the code-compression system from outside, through public
// functions, on one of four seeded workloads:
//
//	publish     the producer: source → wire and BRISC artifacts
//	cold-start  the client loading large code it runs about once
//	hot-loop    the client running small code for long
//	serve       compressd answering compress and run requests
//
// Every op's output is checked against an independent reference
// (irexec), and the last line of standard output is one JSON object
// with the run's metrics: the end-to-end ones, or with -trace 1 the
// per-layer ones from a separate traced run. README.md in this
// directory documents the workloads and metrics; run.sh builds the
// benchmark from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, on every workload.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"wire_size_ratio", "ratio"},
	{"brisc_size_ratio", "ratio"},
	{"wire.ms_p50", "ms"},
	{"brisc.ms_p50", "ms"},
	{"xip.ms_p50", "ms"},
	{"jit.ms_p50", "ms"},
	{"wire.steps_per_s", "steps/s"},
	{"brisc.steps_per_s", "steps/s"},
	{"xip.steps_per_s", "steps/s"},
	{"jit.steps_per_s", "steps/s"},
	{"xip_resident_kb", "KiB"},
}

// perLayerMetrics come from the traced run.
var perLayerMetrics = []metric{
	{"cc.compile.ms_per_call", "ms"},
	{"cc.compile.src_kb_per_s", "KiB/s"},
	{"codegen.generate.ms_per_call", "ms"},
	{"wire.compress.ms_per_call", "ms"},
	{"wire.compress.mb_per_s", "MB/s"},
	{"wire.decompress.ms_per_call", "ms"},
	{"wire.decompress.mb_per_s", "MB/s"},
	{"wire.decompress.inflate_ms", "ms"},
	{"wire.decompress.parse_ms", "ms"},
	{"brisc.compress.ms_per_call", "ms"},
	{"brisc.compress.kinstrs_per_s", "kinstr/s"},
	{"brisc.compress.dict_patterns", "count"},
	{"brisc.parse.ms_per_call", "ms"},
	{"brisc.new_interp.ms_per_call", "ms"},
	{"brisc.predecode.ms_per_call", "ms"},
	{"brisc.dispatch.steps_per_s", "steps/s"},
	{"brisc.steps_per_op", "steps"},
	{"xip.open.ms_per_call", "ms"},
	{"xip.faults_per_op", "count"},
	{"xip.miss_ratio", "ratio"},
	{"xip.evictions_per_op", "count"},
	{"xip.ms_per_fault", "ms"},
	{"paging.page.us_per_call", "us"},
	{"xip.run.steps_per_s", "steps/s"},
	{"jit.translate.ms_per_call", "ms"},
	{"jit.translate.mb_per_s", "MB/s"},
	{"vm.new_machine.ms_per_call", "ms"},
	{"vm.run.steps_per_s", "steps/s"},
	{"parallel.wait_ms_p50", "ms"},
	{"parallel.busy_frac", "ratio"},
	{"compressd.compress.ms_p50", "ms"},
	{"compressd.run.ms_p50", "ms"},
	{"compressd.shed_ratio", "ratio"},
	{"compressd.admission.queued_max", "count"},
	{"irexec.run.ms_per_call", "ms"},
	{"trace.overhead_pct", "%"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "publish, cold-start, hot-loop or serve")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured time of the run")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	traceDir := flag.String("trace-dir", ".", "directory for the traced run's JSONL")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool, traceDir string) error {
	sp, err := specByName(workload)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v GOMAXPROCS=%d\n", sp.name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0))
	var (
		res  *runResult
		list = endToEndMetrics
	)
	if traced {
		file := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, seed))
		res, err = runTraced(sp, seed, d, file)
		list = perLayerMetrics
		if err == nil {
			fmt.Printf("  trace written to %s\n", file)
		}
	} else {
		res, err = runEndToEnd(sp, seed, d)
	}
	if err != nil {
		return err
	}

	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range list {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	if !traced {
		fmt.Printf("  %-32s %14d samples\n", "op_ms_p90", res.p90n)
		fmt.Printf("  %-32s %14.6g ms (times above are scaled to %v)\n", "calibration kernel", res.calMS, calNominal)
	}
	fmt.Printf("  %-32s %14.6g (%d of %d ops)\n", "fail_ratio", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, e := range res.errs {
		fmt.Printf("  failed: %s\n", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d of %d ops failed", res.failed, res.attempted)
	}
	return nil
}
