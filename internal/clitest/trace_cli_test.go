package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// recordTrace compresses the sample through wirec with -trace and
// returns the JSONL path.
func recordTrace(t *testing.T) string {
	t.Helper()
	src := writeSample(t)
	traceFile := filepath.Join(t.TempDir(), "run.jsonl")
	if out, code := run(t, "wirec", "-trace", traceFile, src); code != 0 {
		t.Fatalf("wirec exited %d:\n%s", code, out)
	}
	return traceFile
}

// TestTraceBuildinfoHeader: the first line of every -trace file is the
// buildinfo block, matching what /buildinfo serves.
func TestTraceBuildinfoHeader(t *testing.T) {
	traceFile := recordTrace(t)
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Type != "buildinfo" {
		t.Fatalf("first trace line is %+v, want buildinfo", events[0])
	}
	hdr := events[0]
	if hdr.Attrs["module"] != "repro" || hdr.Attrs["go_version"] == "" {
		t.Fatalf("buildinfo attrs = %v", hdr.Attrs)
	}
	if hdr.Trace == "" {
		t.Fatal("buildinfo line carries no trace id")
	}
	// Every span shares the header's trace ID.
	for _, e := range events {
		if e.Type == "span" && e.Trace != hdr.Trace {
			t.Fatalf("span %s trace %q != header %q", e.Name, e.Trace, hdr.Trace)
		}
	}
}

// TestTracescopeReportAndCritical drives the analyzer over a real
// recorded trace: the report must show pipeline stages, and critical
// must attribute the (tiny, fully instrumented) run's wall time.
func TestTracescopeReportAndCritical(t *testing.T) {
	traceFile := recordTrace(t)

	out, code := run(t, "tracescope", "report", traceFile)
	if code != 0 {
		t.Fatalf("tracescope report exited %d:\n%s", code, out)
	}
	for _, want := range []string{"wire.compress", "stage", "self", "p99", "repro"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	out, code = run(t, "tracescope", "critical", "-min-attributed", "0", traceFile)
	if code != 0 {
		t.Fatalf("tracescope critical exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "attributed to named stages:") {
		t.Errorf("critical verdict line missing:\n%s", out)
	}
}

// TestTracescopeDiffSelfIsClean: a trace diffed against itself reports
// zero deltas and exits 0.
func TestTracescopeDiffSelfIsClean(t *testing.T) {
	traceFile := recordTrace(t)
	out, code := run(t, "tracescope", "diff", traceFile, traceFile)
	if code != 0 {
		t.Fatalf("self-diff exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ok") || strings.Contains(out, "REGRESSION") {
		t.Errorf("self-diff not clean:\n%s", out)
	}
}

// TestTracescopeGates: both exit gates must trip — an under-attributed
// trace fails critical, and a grown stage fails diff.
func TestTracescopeGates(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Root with one child covering half: 50% attributed.
	sparse := write("sparse.jsonl",
		`{"type":"span","name":"root","id":1,"start_us":0,"dur_us":10000}`,
		`{"type":"span","name":"half","id":2,"parent":1,"start_us":0,"dur_us":5000}`)
	out, code := run(t, "tracescope", "critical", "-min-attributed", "95", sparse)
	if code != 1 {
		t.Fatalf("under-attributed trace exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("no FAIL verdict:\n%s", out)
	}

	oldT := write("old.jsonl",
		`{"type":"span","name":"hot","id":1,"start_us":0,"dur_us":10000}`)
	newT := write("new.jsonl",
		`{"type":"span","name":"hot","id":1,"start_us":0,"dur_us":30000}`)
	out, code = run(t, "tracescope", "diff", "-threshold", "25", "-min-dur", "1ms", oldT, newT)
	if code != 1 {
		t.Fatalf("regressed diff exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("regression not marked:\n%s", out)
	}
}

// TestMetriclintRepoIsClean runs the naming lint the way `make check`
// does, over the real tree.
func TestMetriclintRepoIsClean(t *testing.T) {
	cmd := exec.Command(filepath.Join(tools(t), "metriclint"))
	cmd.Dir = repoRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("metriclint failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "metriclint: ok") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestMetriclintCatchesViolations: bad casing and cross-package
// duplicates both exit nonzero with named violations.
func TestMetriclintCatchesViolations(t *testing.T) {
	dir := t.TempDir()
	mk := func(rel, body string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk("a/a.go", "package a\n\nfunc f(r rec) { r.Add(\"BadName\", 1); r.Add(\"pkg.shared\", 1) }\n")
	mk("b/b.go", "package b\n\nfunc f(r rec) { r.Observe(\"pkg.shared\", 1) }\n")
	cmd := exec.Command(filepath.Join(tools(t), "metriclint"), dir)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("metriclint on bad tree: err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "BadName") ||
		!strings.Contains(string(out), "registered from 2 packages") {
		t.Fatalf("violations not reported:\n%s", out)
	}
}

// TestBenchdiffJSON: -json emits one machine-readable document whose
// verdict matches the exit code.
func TestBenchdiffJSON(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"gauges":{"bench.X.bytes":1000,"bench.Y.speedup":2.0}}`)
	worse := write("worse.json", `{"gauges":{"bench.X.bytes":1100,"bench.Y.speedup":2.0}}`)

	out, code := run(t, "benchdiff", "-json", "-threshold", "5", "-ignore", "speedup", base, worse)
	if code != 1 {
		t.Fatalf("regressed -json run exited %d, want 1:\n%s", code, out)
	}
	// stderr carries the human verdict; the document is the JSON prefix.
	docText := out[:strings.LastIndex(out, "}")+1]
	var doc struct {
		Threshold float64 `json:"threshold"`
		Regressed bool    `json:"regressed"`
		Rows      []struct {
			Metric    string `json:"metric"`
			Gated     bool   `json:"gated"`
			Regressed bool   `json:"regressed"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(docText), &doc); err != nil {
		t.Fatalf("-json output not parseable: %v\n%s", err, out)
	}
	if !doc.Regressed || doc.Threshold != 5 {
		t.Fatalf("doc verdict = %+v", doc)
	}
	found := false
	for _, r := range doc.Rows {
		switch r.Metric {
		case "bench.X.bytes":
			found = true
			if !r.Gated || !r.Regressed {
				t.Fatalf("bytes row = %+v", r)
			}
		case "bench.Y.speedup":
			if r.Gated {
				t.Fatalf("ignored metric marked gated: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("bench.X.bytes row missing")
	}
}

// TestSharedObservabilityFlags pins the observability contract every
// one-shot CLI shares through expose.Flags. A successful run with
// -metrics and all four file sinks exits 0, leaves a non-empty JSONL
// trace, Chrome trace, CPU profile and heap profile, and prints the
// summary on stderr; a failing run with -metrics exits 1 with the
// "<tool>:" error line and the flight-recorder dump on stderr.
func TestSharedObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	src := writeSample(t)
	obj := filepath.Join(dir, "app.brisc")
	if out, code := run(t, "briscc", "-o", obj, src); code != 0 {
		t.Fatalf("briscc exited %d:\n%s", code, out)
	}
	trace := recordTrace(t)
	snap := filepath.Join(dir, "snap.json")
	if err := os.WriteFile(snap, []byte(`{"gauges": {"x": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	cases := []struct {
		tool string
		mode []string // subcommand, before the flags
		ok   []string // arguments of a successful run
		fail []string // arguments of a failing run
		// summary is a line the -metrics summary must carry; benchdiff
		// and tracescope record no telemetry of their own, so theirs
		// is empty.
		summary string
	}{
		{"briscc", nil, []string{src}, []string{missing}, "-- spans --"},
		{"briscrun", nil, []string{obj}, []string{missing}, "-- spans --"},
		{"wirec", nil, []string{"-o", filepath.Join(dir, "app.wire"), src}, []string{"-d", missing}, "-- spans --"},
		{"mcc", nil, []string{"-run", src}, []string{missing}, "-- spans --"},
		{"compscope", []string{"report"}, []string{src}, []string{missing}, "-- gauges --"},
		{"tracescope", []string{"report"}, []string{trace}, []string{missing}, ""},
		{"benchdiff", nil, []string{snap, snap}, []string{missing, missing}, ""},
		{"experiments", nil, []string{"-table", "wire", "-quick"},
			[]string{"-table", "wire", "-quick", "-metrics-out", filepath.Join(missing, "m.json")}, "-- spans --"},
	}
	for _, c := range cases {
		t.Run(c.tool, func(t *testing.T) {
			out := t.TempDir()
			sinks := []string{"-trace", "T", "-trace-out", "C", "-cpuprofile", "P", "-memprofile", "M"}
			args := append(append([]string{}, c.mode...), "-metrics")
			for i := 1; i < len(sinks); i += 2 {
				args = append(args, sinks[i-1], filepath.Join(out, sinks[i]))
			}
			stderr, code := runStderr(t, c.tool, append(args, c.ok...)...)
			if code != 0 {
				t.Fatalf("successful run exited %d:\n%s", code, stderr)
			}
			for i := 1; i < len(sinks); i += 2 {
				if st, err := os.Stat(filepath.Join(out, sinks[i])); err != nil || st.Size() == 0 {
					t.Errorf("%s file missing or empty: %v", sinks[i-1], err)
				}
			}
			if !strings.Contains(stderr, c.summary) {
				t.Errorf("summary missing %q on stderr:\n%s", c.summary, stderr)
			}

			args = append(append([]string{}, c.mode...), "-metrics")
			stderr, code = runStderr(t, c.tool, append(args, c.fail...)...)
			if code != 1 {
				t.Fatalf("failing run exited %d, want 1:\n%s", code, stderr)
			}
			if !strings.HasPrefix(stderr, c.tool+": ") {
				t.Errorf("stderr lacks the %q prefix:\n%s", c.tool+": ", stderr)
			}
			if !strings.Contains(stderr, "-- flight recorder: fatal: ") {
				t.Errorf("stderr lacks the flight-recorder dump:\n%s", stderr)
			}
		})
	}
}

// runStderr executes a built tool and returns its stderr and exit code.
func runStderr(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, stderr.String())
	}
	return stderr.String(), code
}
