// Package clitest builds the command-line tools and exercises them end
// to end, the way a user would.
package clitest

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// tools builds all cmd binaries once into a shared temp dir.
func tools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "codecomp-tools")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
			"repro/cmd/mcc", "repro/cmd/wirec", "repro/cmd/briscc",
			"repro/cmd/briscrun", "repro/cmd/experiments",
			"repro/cmd/compscope", "repro/cmd/benchdiff",
			"repro/cmd/tracescope", "repro/cmd/metriclint",
			"repro/cmd/compressd")
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			_ = out
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func repoRoot() string {
	dir, _ := os.Getwd()
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

const sample = `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) { putint(fib(10)); return 0; }
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "app.mc")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// run executes a built tool and returns combined output.
func run(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(tools(t), name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out)
	}
	return string(out), code
}

func TestMccCompileAndRun(t *testing.T) {
	src := writeSample(t)
	out, code := run(t, "mcc", "-run", "-stats", src)
	if code != 0 {
		t.Fatalf("mcc exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "55\n") {
		t.Errorf("fib(10) output missing:\n%s", out)
	}
	if !strings.Contains(out, "instructions:") {
		t.Errorf("stats missing:\n%s", out)
	}
	out, code = run(t, "mcc", "-dump-ir", "-dump-asm", src)
	if code != 0 {
		t.Fatalf("dump exited %d", code)
	}
	if !strings.Contains(out, "ADDRLP") || !strings.Contains(out, "enter sp,sp,") {
		t.Errorf("dumps missing expected content:\n%s", out)
	}
}

func TestMccRejectsBadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mc")
	if err := os.WriteFile(path, []byte("int main(void) { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "mcc", path)
	if code == 0 {
		t.Errorf("bad source accepted:\n%s", out)
	}
	if !strings.Contains(out, "undeclared") {
		t.Errorf("diagnostic missing:\n%s", out)
	}
}

func TestWireRoundTripViaCLI(t *testing.T) {
	src := writeSample(t)
	obj := filepath.Join(t.TempDir(), "app.wire")
	out, code := run(t, "wirec", "-c", src, "-o", obj, "-stats")
	if code != 0 {
		t.Fatalf("wirec -c exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "final object:") {
		t.Errorf("stats missing:\n%s", out)
	}
	if !strings.Contains(out, "compression ratio:") {
		t.Errorf("ratio line missing:\n%s", out)
	}
	out, code = run(t, "wirec", "-d", obj, "-dump-ir")
	if code != 0 {
		t.Fatalf("wirec -d exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "CALLI(ADDRGP[fib])") {
		t.Errorf("reconstructed IR missing call:\n%s", out)
	}
}

func TestWireIndexedViaCLI(t *testing.T) {
	src := writeSample(t)
	obj := filepath.Join(t.TempDir(), "app.wirx")
	if out, code := run(t, "wirec", "-c", src, "-indexed", "-o", obj); code != 0 {
		t.Fatalf("indexed compress failed:\n%s", out)
	}
	out, code := run(t, "wirec", "-d", obj, "-indexed", "-func", "fib")
	if code != 0 {
		t.Fatalf("indexed load failed:\n%s", out)
	}
	if !strings.Contains(out, "loaded fib") || !strings.Contains(out, "touched") {
		t.Errorf("partial-load report missing:\n%s", out)
	}
}

// TestWirecMaxBytes: -max-bytes caps the final stage of both formats —
// the WIR2 container and the WIRX header — and the rejection is the
// typed too-large error.
func TestWirecMaxBytes(t *testing.T) {
	src := writeSample(t)
	dir := t.TempDir()
	for _, format := range [][]string{nil, {"-indexed"}} {
		obj := filepath.Join(dir, "app.obj")
		if out, code := run(t, "wirec", append([]string{"-c", src, "-o", obj}, format...)...); code != 0 {
			t.Fatalf("%v compress failed:\n%s", format, out)
		}
		if out, code := run(t, "wirec", append([]string{"-d", obj}, format...)...); code != 0 {
			t.Fatalf("%v decompress without a cap failed:\n%s", format, out)
		}
		out, code := run(t, "wirec", append([]string{"-max-bytes", "8", "-d", obj}, format...)...)
		if code == 0 {
			t.Fatalf("%v: -max-bytes 8 accepted the object:\n%s", format, out)
		}
		if !strings.Contains(out, "exceeds cap") {
			t.Errorf("%v: -max-bytes 8 failed without the too-large error:\n%s", format, out)
		}
	}
}

func TestBriscPipelineViaCLI(t *testing.T) {
	src := writeSample(t)
	dir := t.TempDir()
	obj := filepath.Join(dir, "app.brisc")
	dict := filepath.Join(dir, "app.dict")
	out, code := run(t, "briscc", "-stats", "-o", obj, "-dict-out", dict, src)
	if code != 0 {
		t.Fatalf("briscc exited %d:\n%s", code, out)
	}
	// -stats renders through the telemetry summary sink.
	for _, want := range []string{"briscc.total_code_bytes", "briscc.native_bytes", "brisc.compress", "briscc.ratio.brisc_vs_native"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
	for _, args := range [][]string{
		{obj},
		{"-jit", obj},
		{"-time", obj},
	} {
		out, code := run(t, "briscrun", args...)
		if code != 0 {
			t.Fatalf("briscrun %v exited %d:\n%s", args, code, out)
		}
		if !strings.Contains(out, "55\n") {
			t.Errorf("briscrun %v output missing fib(10):\n%s", args, out)
		}
		if args[0] == "-time" {
			// -time renders through the summary sink too.
			for _, want := range []string{"briscrun.run", "brisc.interp.steps"} {
				if !strings.Contains(out, want) {
					t.Errorf("-time report missing %q:\n%s", want, out)
				}
			}
		}
	}
	// Recompress with the saved dictionary.
	out, code = run(t, "briscc", "-dict-in", dict, "-stats", src)
	if code != 0 {
		t.Fatalf("briscc -dict-in exited %d:\n%s", code, out)
	}
}

// TestWirecTelemetryTrace is the PR's acceptance path: a bare
// positional source file with -metrics and -trace must emit a stage
// summary and a JSONL trace whose per-stage byte counts sum to the
// measured container size.
func TestWirecTelemetryTrace(t *testing.T) {
	src := writeSample(t)
	traceFile := filepath.Join(t.TempDir(), "t.jsonl")
	out, code := run(t, "wirec", "-metrics", "-trace", traceFile, src)
	if code != 0 {
		t.Fatalf("wirec exited %d:\n%s", code, out)
	}
	for _, want := range []string{"wire.compress", "wire.patternize", "wire.compression_ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace is not valid JSONL: %v", err)
	}
	var stageSum, container int64
	for _, e := range events {
		if e.Type != "span" {
			continue
		}
		switch e.Name {
		case "wire.metadata", "wire.operators", "wire.literals":
			v, ok := e.IntAttr("bytes")
			if !ok {
				t.Errorf("stage span %s has no bytes attr", e.Name)
			}
			stageSum += v
		case "wire.compress":
			if v, ok := e.IntAttr("container_bytes"); ok {
				container = v
			}
		}
	}
	if container == 0 {
		t.Fatal("no wire.compress span with container_bytes in trace")
	}
	if stageSum != container {
		t.Errorf("stage bytes sum to %d, container is %d", stageSum, container)
	}
}

func TestExperimentsQuickTable(t *testing.T) {
	out, code := run(t, "experiments", "-table", "variants", "-quick")
	if code != 0 {
		t.Fatalf("experiments exited %d:\n%s", code, out)
	}
	for _, want := range []string{"RISC", "minus both", "compressed/native"} {
		if !strings.Contains(out, want) {
			t.Errorf("variants table missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentsUnknownTable(t *testing.T) {
	out, code := run(t, "experiments", "-table", "nosuch")
	if code != 2 {
		t.Fatalf("experiments -table nosuch exited %d, want 2:\n%s", code, out)
	}
	for _, want := range []string{`"nosuch"`, "all", "workingset", "paging", "profile", "penalty", "batch"} {
		if !strings.Contains(out, want) {
			t.Errorf("unknown-table error does not name %q:\n%s", want, out)
		}
	}
}

// TestCompscopeReport: the X-ray must fully account for both artifact
// kinds compiled from source, and for a serialized artifact loaded by
// magic, and -json must emit parseable attribution gauges.
func TestCompscopeReport(t *testing.T) {
	src := writeSample(t)
	out, code := run(t, "compscope", "report", src)
	if code != 0 {
		t.Fatalf("compscope report exited %d:\n%s", code, out)
	}
	for _, want := range []string{"(wire)", "(brisc)", "100.0%", "streams", "functions"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	obj := filepath.Join(t.TempDir(), "app.wire")
	if out, code := run(t, "wirec", "-c", src, "-o", obj); code != 0 {
		t.Fatalf("wirec -c exited %d:\n%s", code, out)
	}
	jsonFile := filepath.Join(t.TempDir(), "attrib.json")
	out, code = run(t, "compscope", "report", "-json", jsonFile, obj)
	if code != 0 {
		t.Fatalf("compscope report on artifact exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "wir2 artifact") || !strings.Contains(out, "100.0%") {
		t.Errorf("artifact report incomplete:\n%s", out)
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-json output is not a snapshot: %v", err)
	}
	if snap.Gauges["attrib.wir2.total_bytes"] <= 0 {
		t.Errorf("missing attrib.wir2.total_bytes gauge in %v", snap.Gauges)
	}
}

// TestCompscopeDiff: diffing a program against a grown variant must
// rank the movement and report the size change.
func TestCompscopeDiff(t *testing.T) {
	oldSrc := writeSample(t)
	grown := strings.Replace(sample, "int main",
		"int pad(int x) { return x * 100003 + 900029; }\nint main", 1)
	newSrc := filepath.Join(t.TempDir(), "grown.mc")
	if err := os.WriteFile(newSrc, []byte(grown), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "compscope", "diff", oldSrc, newSrc)
	if code != 0 {
		t.Fatalf("compscope diff exited %d:\n%s", code, out)
	}
	for _, want := range []string{"total", "streams"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// TestCompscopeHot: the dynamic join must run the program (its output
// appears) and rank dictionary entries by execution density.
func TestCompscopeHot(t *testing.T) {
	src := writeSample(t)
	out, code := run(t, "compscope", "hot", src)
	if code != 0 {
		t.Fatalf("compscope hot exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "55") {
		t.Errorf("program output missing from hot run:\n%s", out)
	}
	for _, want := range []string{"units executed", "density", "opcode"} {
		if !strings.Contains(out, want) {
			t.Errorf("hot report missing %q:\n%s", want, out)
		}
	}
}

// TestBriscrunPagedXIP: the execute-in-place pipeline end to end —
// compile, profile with `compscope hot -json`, then run demand-paged
// with the profile-driven layout and a bounded predecode cache.
func TestBriscrunPagedXIP(t *testing.T) {
	src := writeSample(t)
	dir := t.TempDir()
	obj := filepath.Join(dir, "app.brisc")
	out, code := run(t, "briscc", "-o", obj, src)
	if code != 0 {
		t.Fatalf("briscc exited %d:\n%s", code, out)
	}
	profile := filepath.Join(dir, "hot.json")
	out, code = run(t, "compscope", "hot", "-json", profile, obj)
	if code != 0 {
		t.Fatalf("compscope hot -json exited %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	var hot struct {
		Blocks []struct {
			Off        int32 `json:"off"`
			Bytes      int32 `json:"bytes"`
			Executions int64 `json:"executions"`
		} `json:"blocks"`
		Units int64 `json:"units_executed"`
	}
	if err := json.Unmarshal(raw, &hot); err != nil {
		t.Fatalf("hot profile is not valid JSON: %v\n%s", err, raw)
	}
	if len(hot.Blocks) == 0 || hot.Units == 0 {
		t.Fatalf("hot profile missing block data: %s", raw)
	}
	var executed int64
	for _, b := range hot.Blocks {
		executed += b.Executions
	}
	if executed == 0 {
		t.Fatalf("no block recorded any executions: %s", raw)
	}

	out, code = run(t, "briscrun",
		"-paged", "-page-size", "128", "-page-cache", "2", "-layout", profile, "-time", obj)
	if code != 0 {
		t.Fatalf("briscrun -paged exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "55\n") {
		t.Errorf("paged run output missing fib(10):\n%s", out)
	}
	for _, want := range []string{"paging.xip.faults", "paging.xip.peak_resident_pages", "briscrun.run"} {
		if !strings.Contains(out, want) {
			t.Errorf("-time report missing %q:\n%s", want, out)
		}
	}
	// -paged and -jit are two different executors; asking for both is a
	// usage error, not a silent choice.
	out, code = run(t, "briscrun", "-paged", "-jit", obj)
	if code == 0 {
		t.Fatalf("briscrun -paged -jit must fail:\n%s", out)
	}
}

// TestBenchdiffGate: the regression gate must pass identical
// snapshots, fail a regressed one past the threshold, and honor
// -ignore for timing-derived metrics.
func TestBenchdiffGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"gauges":{"bench.X.bytes":1000,"bench.Y.speedup":2.0}}`)
	same := write("same.json", `{"gauges":{"bench.X.bytes":1000,"bench.Y.speedup":1.0}}`)
	worse := write("worse.json", `{"gauges":{"bench.X.bytes":1100,"bench.Y.speedup":2.0}}`)

	out, code := run(t, "benchdiff", "-threshold", "5", "-ignore", "speedup", base, same)
	if code != 0 {
		t.Fatalf("identical gated metrics exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "(ignored)") {
		t.Errorf("ignored metric not marked:\n%s", out)
	}
	out, code = run(t, "benchdiff", "-threshold", "5", "-ignore", "speedup", base, worse)
	if code != 1 {
		t.Fatalf("regressed metrics exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("regression not marked:\n%s", out)
	}
	out, code = run(t, "benchdiff", base, worse)
	if code != 0 {
		t.Fatalf("report-only mode exited %d:\n%s", code, out)
	}
	_ = out
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Dir = repoRoot()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart: %v\n%s", err, out)
	}
	for _, want := range []string{"wire format:", "BRISC object:", "BRISC JIT-compiled"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("quickstart output missing %q", want)
		}
	}
}

// TestWirecDebugAddr: a short-lived tool with -debug-addr starts its
// debug server (announced on stderr), finishes its work, and exits
// cleanly — the server must not keep the process alive.
func TestWirecDebugAddr(t *testing.T) {
	src := writeSample(t)
	obj := filepath.Join(t.TempDir(), "app.wire")
	out, code := run(t, "wirec", "-debug-addr", "127.0.0.1:0", "-c", src, "-o", obj)
	if code != 0 {
		t.Fatalf("wirec -debug-addr exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "debug: serving http://") {
		t.Fatalf("no debug-server announcement:\n%s", out)
	}
	if _, err := os.Stat(obj); err != nil {
		t.Fatalf("compressed object missing: %v", err)
	}
}

// TestBriscrunDebugAddrLiveScrape runs a long-running BRISC program
// under -debug-addr and scrapes the live endpoints mid-execution — the
// end-to-end proof of the observability plane: compile, run, curl
// /metrics while the interpreter is hot.
func TestBriscrunDebugAddrLiveScrape(t *testing.T) {
	// A program that runs long enough to scrape but is bounded by the
	// governor either way.
	loop := filepath.Join(t.TempDir(), "loop.mc")
	if err := os.WriteFile(loop, []byte(`
int main(void) { int i; i = 0; while (i < 2000000000) { i = i + 1; } return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	obj := filepath.Join(t.TempDir(), "loop.brisc")
	if out, code := run(t, "briscc", "-o", obj, loop); code != 0 {
		t.Fatalf("briscc exited %d:\n%s", code, out)
	}

	cmd := exec.Command(filepath.Join(tools(t), "briscrun"),
		"-debug-addr", "127.0.0.1:0", "-sample", "50ms", "-timeout", "60s", obj)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The startup line carries the bound address.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "debug: serving http://") {
			addr = strings.TrimPrefix(line, "debug: serving ")
			addr = strings.Fields(addr)[0]
			addr = strings.TrimSuffix(addr, "/")
			break
		}
	}
	if addr == "" {
		t.Fatalf("debug-server announcement not seen: %v", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(addr + "/metrics")
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if strings.Contains(string(body), "runtime_goroutines") {
			if resp2, err := http.Get(addr + "/healthz"); err == nil {
				b2, _ := io.ReadAll(resp2.Body)
				resp2.Body.Close()
				if string(b2) != "ok\n" {
					t.Fatalf("healthz = %q", b2)
				}
				return // scraped live metrics from a running interpreter
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("never scraped sampler gauges from live process: %v", lastErr)
}

// TestBriscrunTraceOut: -trace-out writes a Perfetto-loadable Chrome
// trace with the identity triple on every span event.
func TestBriscrunTraceOut(t *testing.T) {
	src := writeSample(t)
	obj := filepath.Join(t.TempDir(), "app.brisc")
	if out, code := run(t, "briscc", "-o", obj, src); code != 0 {
		t.Fatalf("briscc exited %d:\n%s", code, out)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if out, code := run(t, "briscrun", "-trace-out", tracePath, obj); code != 0 {
		t.Fatalf("briscrun exited %d:\n%s", code, out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	ids := map[any]bool{}
	var spans int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			ids[e.Args["trace_id"]] = true
			if _, ok := e.Args["span_id"]; !ok {
				t.Fatalf("span event missing span_id: %+v", e)
			}
		}
	}
	if spans == 0 || len(ids) != 1 {
		t.Fatalf("spans=%d distinct trace ids=%d, want >0 and 1", spans, len(ids))
	}
}
