// Command briscrun executes a BRISC object, either by in-place
// interpretation (the memory-bottleneck path) or by JIT translation to
// native VM code (the speed path).
//
// Usage:
//
//	briscrun file.brisc           interpret in place
//	briscrun -jit file.brisc      JIT to native code, then run
//	briscrun -paged file.brisc    execute in place from the compressed page store
//	briscrun -time file.brisc     report execution statistics
//
// Execute-in-place (-paged) never decodes the whole object: the code
// stream is packed into a compressed page store and pages are faulted
// in and predecoded on demand, with residency bounded by -page-cache
// (pages) and -page-bytes (decoded bytes). -layout takes the JSON
// profile from `compscope hot -json file.json` and packs hot blocks
// onto shared pages, cutting the fault rate (paging.xip.* telemetry
// reports faults, hits, evictions, and peak residency).
//
//	-page-size n      raw code bytes per page (default 512)
//	-page-cache n     max resident decoded pages (0 = unbounded)
//	-page-bytes n     max resident decoded bytes (0 = unbounded)
//	-layout file.json profile-driven page layout (compscope hot -json)
//
// Resource limits (untrusted objects):
//
//	-max-steps n   abort after n executed instructions
//	-timeout d     abort after wall-clock duration d (e.g. 2s)
//	-max-mem n     abort when memory + resident decoded pages exceed n bytes
//
// Observability (shared across the tools):
//
//	-metrics             telemetry summary on stderr
//	-trace file.jsonl    machine-readable span/counter trace
//	-trace-out f.json    Chrome trace_event trace (load in Perfetto)
//	-debug-addr a:p      live debug endpoints (/metrics, /snapshot, /spans, /flight, /debug/pprof)
//	-sample d            runtime sampler interval
//	-cpuprofile f.pprof  CPU profile
//	-memprofile f.pprof  heap profile
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/attrib"
	"repro/internal/brisc"
	"repro/internal/guard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
	"repro/internal/vm"
)

// tool is the process observability state; fatal trips its flight
// recorder and flushes it before exit.
var tool *expose.Tool

func main() {
	jit := flag.Bool("jit", false, "JIT to native code before running")
	paged := flag.Bool("paged", false, "execute in place from the compressed page store (demand paging)")
	pageSize := flag.Int("page-size", 0, "raw code bytes per page for -paged (0 = default 512)")
	pageCache := flag.Int("page-cache", 0, "max resident decoded pages for -paged (0 = unbounded)")
	pageBytes := flag.Int("page-bytes", 0, "max resident decoded bytes for -paged (0 = unbounded)")
	layout := flag.String("layout", "", "page layout profile for -paged: JSON from `compscope hot -json`")
	timing := flag.Bool("time", false, "report execution statistics")
	maxSteps := flag.Int64("max-steps", 0, "abort after executing this many instructions (0 = unlimited)")
	maxMem := flag.Int("max-mem", 0, "abort when VM memory plus resident decoded pages exceed this many bytes (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort after this wall-clock duration, e.g. 2s (0 = unlimited)")
	workers := flag.Int("workers", 0, "cap runtime parallelism (GOMAXPROCS); 0 = one per CPU")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: briscrun [-paged | -jit] [-time] [flags] file.brisc")
		os.Exit(2)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var err error
	tool, err = obs.Start()
	if err != nil {
		fatal(err)
	}
	rec := tool.Rec
	metrics := obs.Metrics

	if *paged && *jit {
		fatal(fmt.Errorf("-paged and -jit are mutually exclusive"))
	}
	limits := guard.Limits{MaxSteps: *maxSteps, MaxMem: *maxMem}
	if *timeout > 0 {
		limits = limits.WithTimeout(*timeout)
	}
	// -time renders through the telemetry summary sink (one format
	// across the CLIs); give it a private recorder when no telemetry
	// flag created one.
	if *timing && rec == nil {
		rec = telemetry.New()
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	obj, err := brisc.Parse(data)
	if err != nil {
		fatal(err)
	}
	var code int32
	if *jit {
		prog, err := brisc.JITTraced(obj, rec)
		if err != nil {
			fatal(err)
		}
		m := vm.NewMachine(prog, 0, os.Stdout)
		m.SetRecorder(rec)
		if err := m.SetLimits(limits); err != nil {
			fatal(err)
		}
		sp := rec.StartSpan("briscrun.run", telemetry.String("mode", "jit"))
		code, err = m.Run(0)
		sp.End()
		if err != nil {
			fatal(err)
		}
	} else {
		it := brisc.NewInterp(obj, 0, os.Stdout)
		if *paged {
			opt := brisc.XIPOptions{PageSize: *pageSize}
			if *layout != "" {
				prof, err := os.ReadFile(*layout)
				if err != nil {
					fatal(err)
				}
				hr, err := attrib.ParseHotJSON(prof)
				if err != nil {
					fatal(err)
				}
				opt.BlockCounts = hr.BlockCounts()
			}
			img, err := brisc.BuildXIP(obj, opt)
			if err != nil {
				fatal(err)
			}
			if err := it.EnableXIP(img, *pageCache, *pageBytes); err != nil {
				fatal(err)
			}
		}
		it.SetRecorder(rec)
		if err := it.SetLimits(limits); err != nil {
			fatal(err)
		}
		runMode := "interp"
		if *paged {
			runMode = "paged"
		}
		sp := rec.StartSpan("briscrun.run", telemetry.String("mode", runMode))
		code, err = it.Run(0)
		sp.End()
		if err != nil {
			fatal(err)
		}
	}
	if *timing && !*metrics { // -metrics already prints the summary at Close
		telemetry.WriteSummary(os.Stderr, rec)
	}
	if err := tool.Close(); err != nil {
		fatal(err)
	}
	os.Exit(int(code))
}

// fatal trips the flight recorder (dumping the last events to stderr)
// and flushes traces/metrics before exiting, so governor trap counters
// reach the summary when a limit kills the run.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "briscrun:", err)
	tool.Fail("fatal: " + err.Error())
	os.Exit(1)
}
