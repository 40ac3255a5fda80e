// Command compscope is the compression X-ray: it attributes every
// byte of a WIR2 or BRISC artifact to its origin — section, stream,
// function, dictionary entry — and joins the static picture with
// dynamic execution counts.
//
// Usage:
//
//	compscope report [flags] file...   attribute each artifact (table + telemetry)
//	compscope diff   [flags] old new   attribute two artifacts, rank the deltas
//	compscope hot    [flags] file      run the interpreter, rank dictionary
//	                                   entries by executions per static byte
//
// Inputs may be .mc sources (compiled on the fly; -format selects the
// artifact kind) or serialized .wire / .brisc artifacts (detected by
// magic). report always enforces the accounting invariant — if the
// attributed bytes do not sum exactly to the artifact size, compscope
// exits nonzero.
//
// In hot mode, -json writes the full static×dynamic join (entries,
// opcodes, and per-basic-block execution counts) as machine-readable
// JSON — the profile `briscrun -layout` consumes to pack hot blocks
// onto shared pages for execute-in-place.
//
//	-json file   report/diff: attribution gauges as a JSON snapshot;
//	             hot: the HotReport profile ("-" = stdout)
//
// The observability flags every tool shares (-metrics, -trace, ...) are
// listed in the Observability table of README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attrib"
	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
	"repro/internal/wire"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet("compscope "+mode, flag.ExitOnError)
	format := fs.String("format", "", "artifact kind for .mc inputs: wire, brisc, or both (default: both for report, wire for diff, brisc for hot)")
	jsonOut := fs.String("json", "", `write a JSON snapshot to this file ("-" = stdout); hot mode emits the block-level profile for briscrun -layout`)
	obs := expose.AddFlags(fs)
	switch mode {
	case "report", "diff", "hot":
	default:
		usage()
	}
	fs.Parse(os.Args[2:])

	var err error
	tool, err = obs.Start()
	if err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec
	// -json renders through the telemetry JSON sink; give it a private
	// recorder when no telemetry flag created one.
	if *jsonOut != "" && rec == nil {
		rec = telemetry.New()
	}

	var hotReport *attrib.HotReport
	switch mode {
	case "report":
		if fs.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: compscope report [flags] file...")
			os.Exit(2)
		}
		for _, path := range fs.Args() {
			for _, art := range load(path, kinds(*format, "both")) {
				attrib.Format(os.Stdout, art.Report)
				art.Report.Publish(rec)
			}
		}
	case "diff":
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: compscope diff [flags] old new")
			os.Exit(2)
		}
		olds := load(fs.Arg(0), kinds(*format, "wire"))
		news := load(fs.Arg(1), kinds(*format, "wire"))
		if len(olds) != 1 || len(news) != 1 {
			tool.Fail(fmt.Errorf("diff needs exactly one artifact per side; use -format wire or -format brisc"))
		}
		d, err := attrib.Diff(olds[0].Report, news[0].Report)
		if err != nil {
			tool.Fail(err)
		}
		attrib.FormatDiff(os.Stdout, d)
	case "hot":
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: compscope hot [flags] file")
			os.Exit(2)
		}
		arts := load(fs.Arg(0), kinds(*format, "brisc"))
		art := arts[0]
		if art.Brisc == nil {
			tool.Fail(fmt.Errorf("hot needs a BRISC artifact (got %s)", art.Report.Kind))
		}
		hr, err := runHot(fs.Arg(0), art, rec)
		if err != nil {
			tool.Fail(err)
		}
		attrib.FormatHot(os.Stdout, hr)
		hotReport = hr
	}

	if *jsonOut != "" {
		w := io.Writer(os.Stdout)
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				tool.Fail(err)
			}
			defer f.Close()
			w = f
		}
		// hot's -json is the machine-readable profile consumed by
		// briscrun -layout; the other modes snapshot telemetry gauges.
		if hotReport != nil {
			err = attrib.WriteHotJSON(w, hotReport)
		} else {
			err = telemetry.WriteJSON(w, rec)
		}
		if err != nil {
			tool.Fail(err)
		}
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
}

// kinds resolves the -format flag for .mc inputs.
func kinds(format, dflt string) []string {
	if format == "" {
		format = dflt
	}
	switch format {
	case "wire":
		return []string{"wire"}
	case "brisc":
		return []string{"brisc"}
	case "both":
		return []string{"wire", "brisc"}
	}
	tool.Fail(fmt.Errorf("unknown -format %q (want wire, brisc, or both)", format))
	return nil
}

// load reads one input: a serialized artifact (dispatched on magic) or
// a .mc source compiled to the requested artifact kinds. Analyze
// enforces the 100%-accounting invariant, so a mis-attributed artifact
// exits nonzero here.
func load(path string, mcKinds []string) []*attrib.Artifact {
	data, err := os.ReadFile(path)
	if err != nil {
		tool.Fail(err)
	}
	if !strings.HasSuffix(path, ".mc") {
		art, err := attrib.Analyze(path, data)
		if err != nil {
			tool.Fail(err)
		}
		return []*attrib.Artifact{art}
	}
	mod, err := cc.Compile(path, string(data))
	if err != nil {
		tool.Fail(err)
	}
	var arts []*attrib.Artifact
	for _, kind := range mcKinds {
		var artifact []byte
		var label string
		switch kind {
		case "wire":
			label = path + " (wire)"
			if artifact, err = wire.Compress(mod); err != nil {
				tool.Fail(err)
			}
		case "brisc":
			label = path + " (brisc)"
			prog, gerr := codegen.Generate(mod, codegen.Options{})
			if gerr != nil {
				tool.Fail(gerr)
			}
			obj, cerr := brisc.Compress(prog, brisc.Options{})
			if cerr != nil {
				tool.Fail(cerr)
			}
			artifact = obj.Bytes()
		}
		art, err := attrib.Analyze(label, artifact)
		if err != nil {
			tool.Fail(err)
		}
		arts = append(arts, art)
	}
	return arts
}

// runHot executes the artifact in the BRISC interpreter, tracing
// per-unit execution counts and per-opcode dispatch counters, and
// joins them with the static attribution. The traced run uses a
// private recorder so program-level counters don't pollute -metrics
// output; the headline numbers are re-published to rec.
func runHot(source string, art *attrib.Artifact, rec *telemetry.Recorder) (*attrib.HotReport, error) {
	counts := map[int32]int64{}
	it := brisc.NewInterp(art.Brisc.Obj, 0, os.Stdout)
	defer it.Release()
	it.Trace = func(off int32) { counts[off]++ }
	priv := telemetry.New()
	it.SetRecorder(priv)
	if _, err := it.Run(0); err != nil {
		return nil, err
	}
	it.FlushTelemetry()
	dispatch := map[string]int64{}
	for k, v := range priv.Counters() {
		if strings.HasPrefix(k, "brisc.interp.dispatch.") {
			dispatch[strings.TrimPrefix(k, "brisc.interp.dispatch.")] = v
		}
	}
	hr := attrib.Hot(source, art.Brisc, counts, dispatch)
	if rec.Enabled() {
		rec.SetGauge("attrib.hot.units_executed", float64(hr.TotalDyn))
		for i, e := range hr.Entries {
			if i >= 5 {
				break
			}
			rec.SetGauge(fmt.Sprintf("attrib.hot.entry.%d.density", e.Pid), e.Density)
		}
	}
	return hr, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: compscope <report|diff|hot> [flags] file...
  report  attribute every byte of each artifact (exits nonzero unless 100% accounted)
  diff    attribute two artifacts and rank where the bytes moved
  hot     run the BRISC interpreter and rank dictionary entries by dynamic density`)
	os.Exit(2)
}
