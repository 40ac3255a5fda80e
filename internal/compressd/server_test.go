package compressd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// fibSrc terminates quickly and prints 55.
const fibSrc = `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) { putint(fib(10)); return 0; }
`

// spinSrc never terminates on its own — the deadline/trap workhorse.
const spinSrc = `int main(void) { while (1) { } return 0; }`

// startServer boots a test instance on a free port with a live
// recorder and returns its base URL.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Rec == nil {
		rec := telemetry.New()
		rec.EnableFlight(32)
		rec.SetFlightOutput(io.Discard)
		t.Cleanup(func() { rec.Close() })
		cfg.Rec = rec
	}
	s, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, "http://" + s.Addr()
}

// doPost sends a JSON request and returns the (closed) response plus
// its body bytes.
func doPost(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// post sends a JSON request and decodes the response body into out
// (which may be *ErrorResponse for failures), returning the status.
func post(t *testing.T, url string, req any, out any) int {
	t.Helper()
	resp, data := doPost(t, url, req)
	if out != nil {
		if err := jsonUnmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

func jsonUnmarshal(data []byte, out any) error { return json.Unmarshal(data, out) }
func jsonMarshal(v any) ([]byte, error)        { return json.Marshal(v) }

// get fetches a URL and returns its body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// containsLine reports whether body has a line exactly equal to want.
func containsLine(body, want string) bool {
	for _, line := range strings.Split(body, "\n") {
		if line == want {
			return true
		}
	}
	return false
}

// errKind posts and returns the (status, kind) pair of an expected
// error response.
func errKind(t *testing.T, url string, req any) (int, string) {
	t.Helper()
	var er ErrorResponse
	status := post(t, url, req, &er)
	return status, er.Kind
}

func TestCompressDecompressRunRoundTrip(t *testing.T) {
	for _, format := range []string{"wire", "brisc"} {
		t.Run(format, func(t *testing.T) {
			_, base := startServer(t, Config{})

			var cr CompressResponse
			if code := post(t, base+"/v1/compress", CompressRequest{Name: "fib", Source: fibSrc, Format: format}, &cr); code != 200 {
				t.Fatalf("compress = %d", code)
			}
			if cr.Format != format || len(cr.Artifact) == 0 || cr.ArtifactBytes != len(cr.Artifact) || cr.Ratio <= 0 {
				t.Fatalf("compress response: %+v", cr)
			}

			var dr DecompressResponse
			if code := post(t, base+"/v1/decompress", DecompressRequest{Format: format, Artifact: cr.Artifact}, &dr); code != 200 {
				t.Fatalf("decompress = %d", code)
			}
			if dr.Functions != 2 {
				t.Fatalf("functions = %d, want 2 (fib, main)", dr.Functions)
			}

			var rr RunResponse
			if code := post(t, base+"/v1/run", RunRequest{Artifact: cr.Artifact, Format: format}, &rr); code != 200 {
				t.Fatalf("run = %d", code)
			}
			if rr.ExitCode != 0 || !strings.Contains(rr.Output, "55") {
				t.Fatalf("run response: %+v", rr)
			}
		})
	}
}

func TestRunEngines(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, engine := range []string{"vm", "brisc", "jit"} {
		var rr RunResponse
		if code := post(t, base+"/v1/run", RunRequest{Source: fibSrc, Engine: engine}, &rr); code != 200 {
			t.Fatalf("%s: run = %d", engine, code)
		}
		if !strings.Contains(rr.Output, "55") || rr.Engine != engine {
			t.Fatalf("%s: %+v", engine, rr)
		}
	}
}

func TestWireDumpIR(t *testing.T) {
	_, base := startServer(t, Config{})
	var cr CompressResponse
	post(t, base+"/v1/compress", CompressRequest{Source: fibSrc}, &cr)
	var dr DecompressResponse
	if code := post(t, base+"/v1/decompress", DecompressRequest{Artifact: cr.Artifact, DumpIR: true}, &dr); code != 200 {
		t.Fatalf("decompress = %d", code)
	}
	if !strings.Contains(dr.IR, "fib") {
		t.Fatalf("IR dump missing function: %q", dr.IR)
	}
}

func TestBadRequestsAreTyped(t *testing.T) {
	_, base := startServer(t, Config{})
	cases := []struct {
		name     string
		url      string
		req      any
		wantCode int
		wantKind string
	}{
		{"bad json", "/v1/compress", "not json", 400, "bad-request"},
		{"empty source", "/v1/compress", CompressRequest{}, 400, "bad-request"},
		{"compile error", "/v1/compress", CompressRequest{Source: "int main(void) { return x; }"}, 400, "compile"},
		{"unknown format", "/v1/compress", CompressRequest{Source: fibSrc, Format: "zip"}, 400, "bad-request"},
		{"empty artifact", "/v1/decompress", DecompressRequest{}, 400, "bad-request"},
		{"run wants one input", "/v1/run", RunRequest{}, 400, "bad-request"},
		{"unknown engine", "/v1/run", RunRequest{Source: fibSrc, Engine: "warp"}, 400, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A raw string marshals to a JSON string — not an object — so
			// the handler's Unmarshal into the request struct fails.
			code, kind := errKind(t, base+tc.url, tc.req)
			if code != tc.wantCode || kind != tc.wantKind {
				t.Fatalf("got (%d, %q), want (%d, %q)", code, kind, tc.wantCode, tc.wantKind)
			}
		})
	}
}

func TestCorruptArtifactsAreTyped(t *testing.T) {
	_, base := startServer(t, Config{})
	var cr CompressResponse
	post(t, base+"/v1/compress", CompressRequest{Source: fibSrc}, &cr)

	corrupt := append([]byte(nil), cr.Artifact...)
	corrupt[len(corrupt)/2] ^= 0x40
	code, kind := errKind(t, base+"/v1/decompress", DecompressRequest{Artifact: corrupt})
	if code != 422 {
		t.Fatalf("corrupt artifact = %d (%s), want 422", code, kind)
	}

	truncated := cr.Artifact[:len(cr.Artifact)/3]
	code, kind = errKind(t, base+"/v1/decompress", DecompressRequest{Artifact: truncated})
	if code != 422 || (kind != "truncated" && kind != "corrupt") {
		t.Fatalf("truncated artifact = %d %q, want 422 truncated|corrupt", code, kind)
	}

	// Same typed surface on the run endpoint.
	code, _ = errKind(t, base+"/v1/run", RunRequest{Artifact: corrupt})
	if code != 422 {
		t.Fatalf("run on corrupt artifact = %d, want 422", code)
	}
}

func TestLimitsTrapTyped(t *testing.T) {
	// No server step bound that a fast host could reach inside the
	// deadline case's 150ms; the step case tightens it per request.
	_, base := startServer(t, Config{BaseLimits: guard.Limits{MaxSteps: 1 << 40}})

	// Step budget exhausted → 413 limit:steps.
	code, kind := errKind(t, base+"/v1/run", RunRequest{Source: spinSrc, Limits: LimitsSpec{MaxSteps: 10_000}})
	if code != 413 || kind != "limit:"+guard.LimitSteps {
		t.Fatalf("steps trap = %d %q", code, kind)
	}

	// Client timeout → 408 limit:deadline, from a deadline folded into
	// the governor by guard.FromContext.
	start := time.Now()
	code, kind = errKind(t, base+"/v1/run", RunRequest{Source: spinSrc, Limits: LimitsSpec{TimeoutMS: 150}})
	if code != 408 || kind != "limit:"+guard.LimitDeadline {
		t.Fatalf("deadline trap = %d %q", code, kind)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not propagate: request took %v", elapsed)
	}

	// Call-depth exhausted → 413 limit:call-depth.
	deep := `int f(int n) { return f(n+1); } int main(void) { return f(0); }`
	code, kind = errKind(t, base+"/v1/run", RunRequest{Source: deep, Limits: LimitsSpec{MaxCallDepth: 64}})
	if code != 413 || kind != "limit:"+guard.LimitDepth {
		t.Fatalf("depth trap = %d %q", code, kind)
	}
}

func TestClientCannotExceedServerCeiling(t *testing.T) {
	// Server ceiling of 10k steps; the client asks for 100M and still
	// traps at the ceiling.
	_, base := startServer(t, Config{BaseLimits: guard.Limits{MaxSteps: 10_000}})
	code, kind := errKind(t, base+"/v1/run", RunRequest{Source: spinSrc, Limits: LimitsSpec{MaxSteps: 100_000_000}})
	if code != 413 || kind != "limit:"+guard.LimitSteps {
		t.Fatalf("ceiling not enforced: %d %q", code, kind)
	}
}

func TestRequestTimeoutCeiling(t *testing.T) {
	// The server-wide request timeout applies even when the client asks
	// for no limits at all.
	_, base := startServer(t, Config{
		RequestTimeout: 200 * time.Millisecond,
		BaseLimits:     guard.Limits{MaxSteps: 1 << 40}, // the timeout must bind first
	})
	start := time.Now()
	code, kind := errKind(t, base+"/v1/run", RunRequest{Source: spinSrc})
	if code != 408 || kind != "limit:"+guard.LimitDeadline {
		t.Fatalf("server timeout = %d %q", code, kind)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server timeout did not bound the request: %v", elapsed)
	}
}

func TestOutputCap(t *testing.T) {
	_, base := startServer(t, Config{MaxOutputBytes: 16})
	noisy := `int main(void) { int i; i = 0; while (i < 100) { putint(i); i = i + 1; } return 0; }`
	var rr RunResponse
	if code := post(t, base+"/v1/run", RunRequest{Source: noisy}, &rr); code != 200 {
		t.Fatalf("run = %d", code)
	}
	if !rr.OutputTruncated || len(rr.Output) > 16 {
		t.Fatalf("output cap not applied: truncated=%v len=%d", rr.OutputTruncated, len(rr.Output))
	}
}

func TestBodyCap(t *testing.T) {
	_, base := startServer(t, Config{MaxBodyBytes: 256})
	big := CompressRequest{Source: strings.Repeat("int x; ", 1000)}
	code, kind := errKind(t, base+"/v1/compress", big)
	if code != 413 || kind != "too-large" {
		t.Fatalf("oversized body = %d %q", code, kind)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}
	// Generate some traffic, then check the exposition names.
	var cr CompressResponse
	post(t, base+"/v1/compress", CompressRequest{Source: fibSrc}, &cr)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"compressd_http_requests_total",
		"compressd_admission_admitted_total",
		"compressd_admission_in_flight",
		"compressd_pool_workers",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, base := startServer(t, Config{})
	resp, err := http.Get(base + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("GET on POST endpoint = %d", resp.StatusCode)
	}
}

func TestErrmapTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{ErrShed, 429, "shed"},
		{fmt.Errorf("queue: %w", ErrShed), 429, "shed"},
		{ErrDraining, 503, "draining"},
		{&guard.TrapError{Engine: "vm", Limit: guard.LimitDeadline}, 408, "limit:deadline"},
		{&guard.TrapError{Engine: "vm", Limit: guard.LimitSteps}, 413, "limit:steps"},
		{&guard.TrapError{Engine: "vm", Limit: guard.LimitMem}, 413, "limit:mem"},
		{&guard.TrapError{Engine: "vm", Limit: guard.LimitDepth}, 413, "limit:call-depth"},
		{integrity.ErrCorrupt, 422, "corrupt"},
		{integrity.ErrTruncated, 422, "truncated"},
		{integrity.ErrVersion, 422, "version"},
		{integrity.ErrTooLarge, 413, "too-large"},
		{badRequest("nope"), 400, "bad-request"},
		{compileError(errors.New("syntax")), 400, "compile"},
		{errors.New("mystery"), 500, "internal"},
	}
	for _, tc := range cases {
		status, kind := Map(tc.err)
		if status != tc.status || kind != tc.kind {
			t.Errorf("Map(%v) = (%d, %q), want (%d, %q)", tc.err, status, kind, tc.status, tc.kind)
		}
	}
}
