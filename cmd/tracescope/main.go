// Command tracescope is the trace X-ray: the offline analyzer for the
// JSONL telemetry traces every tool records with -trace. Where
// compscope accounts for every byte of an artifact, tracescope
// accounts for every microsecond of a run: per-stage self vs child
// time with duration quantiles, the critical path through the
// parallel fan-out with an unattributed residual, and stage-by-stage
// diffs of two traces with a regression verdict.
//
// Usage:
//
//	tracescope report   [flags] trace.jsonl       per-stage table (count, total, self, p50/p90/p99, attrs)
//	tracescope critical [flags] trace.jsonl       critical-path attribution; exits nonzero when the
//	                                              attributed share falls below -min-attributed
//	tracescope diff     [flags] old.jsonl new.jsonl
//	                                              per-stage deltas; exits nonzero on regression
//
// Flags:
//
//	-min-attributed pct  critical: minimum percent of wall time that must land
//	                     in named leaf stages (default 95; 0 disables the gate)
//	-threshold pct       diff: relative growth a stage total may show before it
//	                     counts as a regression (default 25; 0 = report only)
//	-min-dur d           diff: stages whose new total is below this floor never
//	                     regress — absolute noise guard (default 1ms)
//
// The shared observability flags (-trace, -metrics, -debug-addr, ...)
// are also accepted, so tracescope can trace itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/telemetry/expose"
	"repro/internal/tracescope"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet("tracescope "+mode, flag.ExitOnError)
	minAttributed := fs.Float64("min-attributed", 95, "critical: minimum percent of wall time attributed to named stages (0 disables the gate)")
	threshold := fs.Float64("threshold", 25, "diff: exit nonzero when a stage total grows by more than this percent (0 = report only)")
	minDur := fs.Duration("min-dur", time.Millisecond, "diff: stages with a new total below this floor never regress")
	obs := expose.AddFlags(fs)
	switch mode {
	case "report", "critical", "diff":
	default:
		usage()
	}
	fs.Parse(os.Args[2:])

	var err error
	tool, err = obs.Start()
	if err != nil {
		tool.Fail(err)
	}
	defer tool.Close()

	switch mode {
	case "report":
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: tracescope report [flags] trace.jsonl")
			exit(2)
		}
		t := parse(fs.Arg(0))
		tracescope.WriteReport(os.Stdout, t)
	case "critical":
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: tracescope critical [flags] trace.jsonl")
			exit(2)
		}
		t := parse(fs.Arg(0))
		tracescope.WriteCritical(os.Stdout, t, *minAttributed)
		if c := t.CriticalPath(); *minAttributed > 0 && c.AttributedPct() < *minAttributed {
			fmt.Fprintf(os.Stderr, "tracescope: only %.1f%% of wall time attributed (floor %.1f%%)\n",
				c.AttributedPct(), *minAttributed)
			exit(1)
		}
	case "diff":
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: tracescope diff [flags] old.jsonl new.jsonl")
			exit(2)
		}
		oldT, newT := parse(fs.Arg(0)), parse(fs.Arg(1))
		res := tracescope.Diff(oldT, newT, *threshold, *minDur)
		tracescope.WriteDiff(os.Stdout, fs.Arg(0), fs.Arg(1), res, *threshold, *minDur)
		if res.Regressed {
			fmt.Fprintf(os.Stderr, "tracescope: stage totals regressed past %.1f%% against %s\n",
				*threshold, fs.Arg(0))
			exit(1)
		}
	}
}

func parse(path string) *tracescope.Trace {
	t, err := tracescope.ParseFile(path)
	if err != nil {
		tool.Fail(err)
	}
	return t
}

// exit closes the tool (flushing any trace of tracescope itself)
// before terminating.
func exit(code int) {
	tool.Close()
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracescope report   [flags] trace.jsonl
  tracescope critical [flags] trace.jsonl
  tracescope diff     [flags] old.jsonl new.jsonl`)
	os.Exit(2)
}
