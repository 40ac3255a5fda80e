// Command experiments regenerates the paper's evaluation: every table
// plus the headline measurements. See DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for the recorded paper-vs-measured results.
//
// Usage:
//
//	experiments [-table name] [-quick] [-workers N] [-metrics-out file]
//
// -table all (the default) prints every table but batch; -h lists the
// table names, which are experiments.Tables. -quick skips the slow
// timing columns, and -workers sizes the pool of -table batch (0 = one
// per CPU).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	names := []string{"all"}
	usage := "which experiment to run:\nall: every table but batch"
	for _, t := range experiments.Tables {
		names = append(names, t.Name)
		usage += "\n" + t.Name + ": " + t.Doc
	}
	table := flag.String("table", "all", usage)
	quick := flag.Bool("quick", false, "skip slow timing measurements")
	workers := flag.Int("workers", 0, "worker pool size for -table batch: 0 = one per CPU, 1 = serial")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()

	i := slices.Index(names, *table)
	if i < 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown table %q (tables: %s)\n", *table, strings.Join(names, ", "))
		os.Exit(2)
	}

	var err error
	if tool, err = obs.Start(); err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec
	if *metricsOut != "" && rec == nil {
		rec = telemetry.New()
	}
	experiments.SetRecorder(rec)

	opt := experiments.Options{Quick: *quick, Workers: *workers}
	if i == 0 {
		err = experiments.RunAll(os.Stdout, opt)
	} else {
		var out string
		if out, err = experiments.Tables[i-1].Run(opt); err == nil {
			fmt.Print(out)
		}
	}
	if err != nil {
		tool.Fail(err)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = telemetry.WriteJSON(f, rec)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			tool.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics %s\n", *metricsOut)
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
}
