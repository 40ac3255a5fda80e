// Command benchdiff compares two telemetry JSON snapshots (the
// BENCH_pipeline.json format written by `make bench` and the
// experiments harness) and reports per-metric deltas, ranked by
// relative change. With -threshold it exits nonzero when any compared
// metric moved past the limit — the regression gate `make check` runs
// against the committed baseline.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 5 -ignore 'speedup' baseline.json current.json
//	benchdiff -only 'bench.BenchmarkWire' old.json new.json
//	benchdiff -json -threshold 5 old.json new.json > diff.json
//
// -only restricts the comparison to metrics whose names match the
// regexp (the mirror of -ignore), and a geometric-mean summary of the
// relative changes is printed after the table. -json replaces the
// human-readable table with one machine-readable JSON document (rows,
// geomean, verdict) on stdout — the format `make trace-check` records
// as its CI artifact; the exit code still reflects the threshold.
//
// Timing-derived metrics (wall-clock speedups, span durations) are
// machine-dependent and should be excluded from gating via -ignore;
// byte counts and other size metrics are deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"text/tabwriter"

	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

type row struct {
	key      string
	old, new float64
	pct      float64 // relative change in percent; NaN when old == 0
}

// jsonRow and jsonDoc are the -json output shape. Pct is omitted for
// appeared-from-zero metrics (NaN has no JSON encoding).
type jsonRow struct {
	Metric    string   `json:"metric"`
	Old       float64  `json:"old"`
	New       float64  `json:"new"`
	Pct       *float64 `json:"pct,omitempty"`
	Gated     bool     `json:"gated"`
	Regressed bool     `json:"regressed,omitempty"`
}

type jsonDoc struct {
	Old        string    `json:"old"`
	New        string    `json:"new"`
	Threshold  float64   `json:"threshold"`
	Regressed  bool      `json:"regressed"`
	GeomeanPct *float64  `json:"geomean_pct,omitempty"`
	Rows       []jsonRow `json:"rows"`
	OnlyOld    []string  `json:"only_old,omitempty"`
	OnlyNew    []string  `json:"only_new,omitempty"`
}

func main() {
	threshold := flag.Float64("threshold", 0, "exit nonzero if any compared metric changes by more than this percent (0 = report only)")
	ignore := flag.String("ignore", "", "regexp of metric names to exclude from gating (still reported)")
	only := flag.String("only", "", "regexp of metric names to compare; everything else is dropped")
	jsonOut := flag.Bool("json", false, "write one machine-readable JSON document to stdout instead of the table")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-ignore regexp] [-only regexp] old.json new.json")
		os.Exit(2)
	}
	var terr error
	tool, terr = obs.Start()
	if terr != nil {
		tool.Fail(terr)
	}
	defer tool.Close()
	var ignoreRe *regexp.Regexp
	if *ignore != "" {
		var err error
		if ignoreRe, err = regexp.Compile(*ignore); err != nil {
			tool.Fail(fmt.Errorf("bad -ignore: %w", err))
		}
	}
	var onlyRe *regexp.Regexp
	if *only != "" {
		var err error
		if onlyRe, err = regexp.Compile(*only); err != nil {
			tool.Fail(fmt.Errorf("bad -only: %w", err))
		}
	}
	oldSnap := readSnapshot(flag.Arg(0))
	newSnap := readSnapshot(flag.Arg(1))

	oldM := metrics(oldSnap)
	newM := metrics(newSnap)
	if onlyRe != nil {
		for k := range oldM {
			if !onlyRe.MatchString(k) {
				delete(oldM, k)
			}
		}
		for k := range newM {
			if !onlyRe.MatchString(k) {
				delete(newM, k)
			}
		}
	}
	var rows []row
	var onlyOld, onlyNew []string
	for k, ov := range oldM {
		nv, ok := newM[k]
		if !ok {
			onlyOld = append(onlyOld, k)
			continue
		}
		r := row{key: k, old: ov, new: nv}
		switch {
		case ov == nv:
			r.pct = 0
		case ov == 0:
			r.pct = math.NaN()
		default:
			r.pct = 100 * (nv - ov) / math.Abs(ov)
		}
		rows = append(rows, r)
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok {
			onlyNew = append(onlyNew, k)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ai, aj := rankMag(rows[i].pct), rankMag(rows[j].pct)
		if ai != aj {
			return ai > aj
		}
		return rows[i].key < rows[j].key
	})
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)

	// Gate first, render second, so the table and the -json document
	// share one verdict.
	failed := false
	gatedOf := make([]bool, len(rows))
	regOf := make([]bool, len(rows))
	for i, r := range rows {
		gatedOf[i] = ignoreRe == nil || !ignoreRe.MatchString(r.key)
		if *threshold > 0 && gatedOf[i] && rankMag(r.pct) > *threshold {
			regOf[i] = true
			failed = true
		}
	}
	// Geometric mean of the new/old ratios across every compared metric
	// with well-defined logs — the one-line "did this change move the
	// suite" summary.
	var logSum float64
	var logN int
	for _, r := range rows {
		if r.old > 0 && r.new > 0 {
			logSum += math.Log(r.new / r.old)
			logN++
		}
	}
	if *jsonOut {
		doc := jsonDoc{
			Old: flag.Arg(0), New: flag.Arg(1),
			Threshold: *threshold, Regressed: failed,
			OnlyOld: onlyOld, OnlyNew: onlyNew,
			Rows: make([]jsonRow, 0, len(rows)),
		}
		if logN > 0 {
			g := 100 * (math.Exp(logSum/float64(logN)) - 1)
			doc.GeomeanPct = &g
		}
		for i, r := range rows {
			jr := jsonRow{Metric: r.key, Old: r.old, New: r.new, Gated: gatedOf[i], Regressed: regOf[i]}
			if !math.IsNaN(r.pct) {
				pct := r.pct
				jr.Pct = &pct
			}
			doc.Rows = append(doc.Rows, jr)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			tool.Fail(err)
		}
	} else {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "metric\told\tnew\tdelta\n")
		for i, r := range rows {
			mark := ""
			if regOf[i] {
				mark = "  REGRESSION"
			}
			if !gatedOf[i] {
				mark = "  (ignored)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s%s\n", r.key, num(r.old), num(r.new), pctStr(r.pct), mark)
		}
		tw.Flush()
		if logN > 0 {
			fmt.Printf("geomean: %+.2f%% across %d metrics\n", 100*(math.Exp(logSum/float64(logN))-1), logN)
		}
		for _, k := range onlyOld {
			fmt.Printf("only in %s: %s\n", flag.Arg(0), k)
		}
		for _, k := range onlyNew {
			fmt.Printf("only in %s: %s\n", flag.Arg(1), k)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: metrics moved more than %.1f%% against %s\n", *threshold, flag.Arg(0))
		tool.Close()
		os.Exit(1)
	}
}

// rankMag is the ranking/gating magnitude of a relative change: NaN
// (appeared from zero) ranks and gates as infinite.
func rankMag(pct float64) float64 {
	if math.IsNaN(pct) {
		return math.Inf(1)
	}
	return math.Abs(pct)
}

func pctStr(pct float64) string {
	if math.IsNaN(pct) {
		return "new!=0"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// metrics folds a snapshot's gauges and counters into one namespace
// (they never collide: the recorder keys them separately by
// convention).
func metrics(s telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Gauges)+len(s.Counters))
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	return out
}

func readSnapshot(path string) telemetry.Snapshot {
	data, err := os.ReadFile(path)
	if err != nil {
		tool.Fail(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		tool.Fail(fmt.Errorf("%s: %w", path, err))
	}
	return snap
}
