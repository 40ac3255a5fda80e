// Command experiments regenerates the paper's evaluation: every table
// plus the headline measurements. See DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for the recorded paper-vs-measured results.
//
// Usage:
//
//	experiments -table all            everything (slow: minutes)
//	experiments -table wire           §3 wire-code table (T1)
//	experiments -table brisc          §4 BRISC results table (T2)
//	experiments -table variants       §5 abstract-machine variants (T3)
//	experiments -table example        §4 salt() worked example (F1)
//	experiments -table workingset     working-set reduction (S3)
//	experiments -table paging         intro paging scenario (S4)
//	experiments -table penalty        interpretation penalty (S1)
//	experiments -table xip            execute-in-place fault/miss sweep (X1)
//	experiments -table batch          batch-compress the corpus through the shared pool
//	experiments -quick                skip the slow timing columns
//	experiments -workers N            worker pool size for -table batch (0 = one per CPU)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
	"repro/internal/workload"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	table := flag.String("table", "all", "which experiment to run")
	quick := flag.Bool("quick", false, "skip slow timing measurements")
	workers := flag.Int("workers", 0, "worker pool size for -table batch: 0 = one per CPU, 1 = serial")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()

	var err error
	if tool, err = obs.Start(); err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec
	if *metricsOut != "" && rec == nil {
		rec = telemetry.New()
	}
	experiments.SetRecorder(rec)

	switch *table {
	case "all":
		err = experiments.RunAll(os.Stdout, *quick)
	case "wire":
		var rows []experiments.WireRow
		if rows, err = experiments.WireTable(); err == nil {
			fmt.Print(experiments.FormatWireTable(rows))
		}
	case "brisc":
		var rows []experiments.BriscRow
		if rows, err = experiments.BriscTable(!*quick); err == nil {
			fmt.Print(experiments.FormatBriscTable(rows))
		}
	case "variants":
		profile := workload.Gcc
		if *quick {
			profile = workload.Wep
		}
		var rows []experiments.VariantRow
		if rows, err = experiments.VariantsTable(profile); err == nil {
			fmt.Print(experiments.FormatVariantsTable(rows))
		}
	case "example":
		var r experiments.SaltResult
		if r, err = experiments.SaltExample(); err == nil {
			fmt.Print(experiments.FormatSaltExample(r))
		}
	case "workingset":
		profiles := []workload.Profile{workload.Wep, workload.Lcc}
		if !*quick {
			profiles = append(profiles, workload.Gcc)
		}
		var rows []experiments.WorkingSetResult
		for _, p := range profiles {
			var r experiments.WorkingSetResult
			if r, err = experiments.WorkingSet(p); err != nil {
				break
			}
			rows = append(rows, r)
		}
		if err == nil {
			fmt.Print(experiments.FormatWorkingSet(rows))
		}
	case "paging":
		var rows []experiments.PagingRow
		if rows, err = experiments.PagingScenario(workload.Lcc, 12); err == nil {
			fmt.Print(experiments.FormatPaging("lcc-sweep", rows))
		}
	case "penalty":
		var rows []experiments.PenaltyRow
		if rows, err = experiments.InterpPenalty(); err == nil {
			fmt.Print(experiments.FormatPenalty(rows))
		}
	case "xip":
		var rows []experiments.XIPRow
		if rows, err = experiments.XIPTable(workload.Wep); err == nil {
			fmt.Print(experiments.FormatXIP(workload.Wep.Name, rows))
		}
	case "profile":
		var r experiments.CallProfileResult
		if r, err = experiments.CallProfile(workload.Lcc); err == nil {
			fmt.Print(experiments.FormatCallProfile(r))
		}
	case "batch":
		var inputs []experiments.BatchInput
		if inputs, err = experiments.CompileCorpus(); err == nil {
			start := time.Now()
			var results []experiments.BatchResult
			if results, err = experiments.BatchCompress(inputs, *workers); err == nil {
				fmt.Print(experiments.FormatBatch(results))
				fmt.Printf("%d modules in %v (workers=%d)\n", len(results), time.Since(start).Round(time.Millisecond), *workers)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown table %q\n", *table)
		os.Exit(2)
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
