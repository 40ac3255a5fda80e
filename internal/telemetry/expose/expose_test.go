package expose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints starts the debug server on a free port and hits
// every endpoint once.
func TestServerEndpoints(t *testing.T) {
	rec := telemetry.New()
	defer rec.Close()
	rec.EnableFlight(16)
	rec.Add("paging.pages_loaded", 3)
	rec.SetGauge("wire.compression_ratio", 0.71)
	rec.Observe("lat_ms", 5)
	rec.StartSpan("compress").End()

	srv, err := StartServer("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, "paging_pages_loaded_total 3") ||
		!strings.Contains(body, "wire_compression_ratio 0.71") ||
		!strings.Contains(body, `lat_ms{quantile="0.99"}`) {
		t.Fatalf("metrics = %d %q", code, body)
	}
	if code, body := get(t, base+"/snapshot"); code != 200 || !json.Valid([]byte(body)) {
		t.Fatalf("snapshot = %d %q", code, body)
	} else {
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Counters["paging.pages_loaded"] != 3 {
			t.Fatalf("snapshot decode: %v %+v", err, snap)
		}
	}
	if code, body := get(t, base+"/spans"); code != 200 || !strings.Contains(body, "compress") {
		t.Fatalf("spans = %d %q", code, body)
	}
	if code, body := get(t, base+"/flight"); code != 200 || !strings.Contains(body, "flight recorder") {
		t.Fatalf("flight = %d %q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d %.120q", code, body)
	}
	if code, _ := get(t, base+"/nonexistent"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

// TestConcurrentScrapeDuringCompression scrapes every live endpoint
// while wire compression runs hot on the same recorder — the
// race-detector proof that serving live views never torn-reads the
// recorder state.
func TestConcurrentScrapeDuringCompression(t *testing.T) {
	const src = `
int acc;
int step(int x) { acc = acc + x; return acc; }
int main() { int i; i = 0; while (i < 10) { i = step(i) - acc + i + 1; } return acc; }
`
	mod, err := cc.Compile("scrape.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	rec.EnableFlight(64)
	defer rec.Close()
	srv, err := StartServer("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // active compression, instrumented through rec
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := wire.MeasureTraced(mod, wire.Options{}, rec); err != nil {
				t.Errorf("compress: %v", err)
				return
			}
		}
	}()
	for _, ep := range []string{"/metrics", "/snapshot", "/spans", "/flight", "/healthz"} {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				resp, err := http.Get(base + ep)
				if err != nil {
					t.Errorf("GET %s: %v", ep, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: status %d", ep, resp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(350 * time.Millisecond)
	close(done)
	wg.Wait()
}

// TestStartLifecycle drives the full flag-level tool: debug server +
// sampler on, Close idempotent, the fatal-path teardown safe afterwards.
func TestStartLifecycle(t *testing.T) {
	var summary bytes.Buffer
	tool, err := Start(Options{
		SummaryTo: &summary,
		DebugAddr: "127.0.0.1:0",
		Sample:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tool.Rec == nil || tool.Server == nil {
		t.Fatal("debug server did not force a recorder")
	}
	if !strings.Contains(summary.String(), "debug: serving http://") {
		t.Fatalf("no startup line: %q", summary.String())
	}
	// The sampler publishes on its own goroutine; wait for its first
	// sample rather than for a fixed time, which a loaded host overran.
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, body := get(t, "http://"+tool.Server.Addr()+"/metrics")
		if strings.Contains(body, "runtime_goroutines") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampler gauges missing from /metrics: %.200q", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	tool.trip("after close") // must not panic or double-flush
	var nilTool *Tool
	nilTool.trip("nil") // nil-safe
	if err := nilTool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailDumpsFlight: the CLI fatal path trips the flight recorder
// into the summary writer before teardown.
func TestFailDumpsFlight(t *testing.T) {
	var summary bytes.Buffer
	tool, err := Start(Options{NeedRecorder: true, SummaryTo: &summary})
	if err != nil {
		t.Fatal(err)
	}
	tool.Rec.Add("vm.governor.steps", 1)
	tool.trip("fatal: steps limit")
	out := summary.String()
	if !strings.Contains(out, "flight recorder: fatal: steps limit") ||
		!strings.Contains(out, "vm.governor.steps") {
		t.Fatalf("flight dump missing: %q", out)
	}
}

// TestWritePrometheusSanitizes pins name mangling and the exposition
// shapes.
func TestWritePrometheusSanitizes(t *testing.T) {
	rec := telemetry.New()
	defer rec.Close()
	rec.Add("brisc.interp.dispatch.addi.i", 5)
	rec.Add("9lives", 1)
	var buf bytes.Buffer
	WritePrometheus(&buf, rec)
	out := buf.String()
	if !strings.Contains(out, "brisc_interp_dispatch_addi_i_total 5") {
		t.Fatalf("dots not sanitized: %q", out)
	}
	if !strings.Contains(out, "_9lives_total 1") {
		t.Fatalf("leading digit not sanitized: %q", out)
	}
	if strings.Contains(out, fmt.Sprintf("%c", '.')) {
		t.Fatalf("dot leaked into exposition: %q", out)
	}
}

// TestDrainOverrunDumpsFlight holds a debug request open past the
// drain deadline and asserts the overrun (1) returns
// context.DeadlineExceeded, (2) dumps the flight-recorder ring so the
// stuck scrape leaves evidence, and (3) still tears the server down.
func TestDrainOverrunDumpsFlight(t *testing.T) {
	rec := telemetry.New()
	defer rec.Close()
	rec.EnableFlight(16)
	var dump bytes.Buffer
	rec.SetFlightOutput(&dump)
	rec.Add("compress.requests", 1) // something for the ring to hold

	srv, err := StartServer("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	// A CPU-profile scrape blocks for its `seconds` parameter — a
	// realistic long-lived debug request.
	started, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		close(started)
		if resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/profile?seconds=5"); err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the scrape reach the handler

	start := time.Now()
	err = srv.Drain(200 * time.Millisecond)
	// The forced drain ended the scrape's handler, so the CPU profiler
	// is free for the next user (another test's StartCPUProfile).
	if perr := pprof.StartCPUProfile(io.Discard); perr != nil {
		t.Fatalf("CPU profiler still held after forced drain: %v", perr)
	}
	pprof.StopCPUProfile()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("overrun drain: want deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain did not respect its bound: took %v", elapsed)
	}
	if !strings.Contains(dump.String(), "drain deadline") {
		t.Fatalf("flight ring not dumped on overrun:\n%s", dump.String())
	}
	// The listener must be gone: a late scrape cannot connect.
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still accepting after forced drain")
	}
	<-scraped
}

// TestDrainCleanNoDump: a drain with no in-flight requests finishes
// inside the deadline without tripping the flight recorder.
func TestDrainCleanNoDump(t *testing.T) {
	rec := telemetry.New()
	defer rec.Close()
	rec.EnableFlight(16)
	var dump bytes.Buffer
	rec.SetFlightOutput(&dump)

	srv, err := StartServer("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if dump.Len() != 0 {
		t.Fatalf("clean drain dumped the ring:\n%s", dump.String())
	}
}
