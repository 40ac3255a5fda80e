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
// The observability flags every tool shares (-metrics, -trace, ...) are
// listed in the Observability table of README.md.
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

// tool is the process observability state; tool.Fail is the one fatal
// path.
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
		tool.Fail(err)
	}
	rec := tool.Rec

	if *paged && *jit {
		tool.Fail(fmt.Errorf("-paged and -jit are mutually exclusive"))
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
		tool.Fail(err)
	}
	obj, err := brisc.Parse(data)
	if err != nil {
		tool.Fail(err)
	}
	var code int32
	if *jit {
		prog, err := brisc.JITTraced(obj, rec)
		if err != nil {
			tool.Fail(err)
		}
		m := vm.NewMachine(prog, 0, os.Stdout)
		m.SetRecorder(rec)
		if err := m.SetLimits(limits); err != nil {
			tool.Fail(err)
		}
		sp := rec.StartSpan("briscrun.run", telemetry.String("mode", "jit"))
		code, err = m.Run(0)
		sp.End()
		if err != nil {
			tool.Fail(err)
		}
	} else {
		it := brisc.NewInterp(obj, 0, os.Stdout)
		if *paged {
			opt := brisc.XIPOptions{PageSize: *pageSize}
			if *layout != "" {
				prof, err := os.ReadFile(*layout)
				if err != nil {
					tool.Fail(err)
				}
				hr, err := attrib.ParseHotJSON(prof)
				if err != nil {
					tool.Fail(err)
				}
				opt.BlockCounts = hr.BlockCounts()
			}
			img, err := brisc.BuildXIP(obj, opt)
			if err != nil {
				tool.Fail(err)
			}
			if err := it.EnableXIP(img, *pageCache, *pageBytes); err != nil {
				tool.Fail(err)
			}
		}
		it.SetRecorder(rec)
		if err := it.SetLimits(limits); err != nil {
			tool.Fail(err)
		}
		runMode := "interp"
		if *paged {
			runMode = "paged"
		}
		sp := rec.StartSpan("briscrun.run", telemetry.String("mode", runMode))
		code, err = it.Run(0)
		sp.End()
		if err != nil {
			tool.Fail(err)
		}
	}
	if *timing && !obs.Metrics { // -metrics already prints the summary at Close
		telemetry.WriteSummary(os.Stderr, rec)
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
	os.Exit(int(code))
}
