package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startCompressd launches the daemon on an ephemeral port and returns
// the command handle and its base URL, scraped from the startup line.
func startCompressd(t *testing.T, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(filepath.Join(tools(t), "compressd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "compressd: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("startup announcement not seen: %v", sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return cmd, "http://" + addr
}

func postJSON(base, path string, body any) (*http.Response, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// TestCompressdEndToEnd: the binary serves a compress→decompress→run
// round trip and exposes its own metrics.
func TestCompressdEndToEnd(t *testing.T) {
	cmd, base := startCompressd(t)

	resp, body, err := postJSON(base, "/v1/compress", map[string]any{"source": sample})
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("compress: %v %s", err, body)
	}
	var cr struct {
		Artifact []byte  `json:"artifact"`
		Ratio    float64 `json:"ratio"`
	}
	if err := json.Unmarshal(body, &cr); err != nil || len(cr.Artifact) == 0 {
		t.Fatalf("compress response: %v %s", err, body)
	}
	// The sample source is tiny, so the artifact may well be larger
	// than the text; only the sign of the ratio is meaningful here.
	if cr.Ratio <= 0 {
		t.Errorf("implausible compression ratio %v", cr.Ratio)
	}

	resp, body, err = postJSON(base, "/v1/run", map[string]any{"artifact": cr.Artifact})
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("run: %v %s", err, body)
	}
	var rr struct {
		ExitCode int    `json:"exit_code"`
		Output   string `json:"output"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ExitCode != 0 || rr.Output != "55\n" {
		t.Fatalf("run = exit %d output %q, want 0 %q", rr.ExitCode, rr.Output, "55\n")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"compressd_http_requests_total", "compressd_admission_in_flight"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("idle daemon did not exit cleanly on SIGTERM: %v", err)
	}
}

// TestCompressdSigtermDrain is the acceptance scenario: concurrent
// requests in flight, SIGTERM mid-flight, every in-flight request
// completes (or traps on its own limits), late requests are refused,
// and the process exits within the drain budget.
func TestCompressdSigtermDrain(t *testing.T) {
	cmd, base := startCompressd(t, "-drain-timeout", "10s")

	// Several in-flight spins that trap on their own 700ms deadlines,
	// plus real work.
	spin := map[string]any{
		"source": "int main(void) { while (1) { } return 0; }",
		"limits": map[string]any{"timeout_ms": 700},
	}
	work := map[string]any{"source": sample}
	type result struct {
		status int
		err    error
	}
	results := make(chan result, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := spin
			if i%2 == 0 {
				body = work
			}
			resp, _, err := postJSON(base, "/v1/run", body)
			if err != nil {
				results <- result{0, err}
				return
			}
			results <- result{resp.StatusCode, nil}
		}(i)
	}

	// Wait until all four requests have reached the handler and some
	// are in flight, then SIGTERM. A request that has not arrived yet
	// when the drain starts is a late request, not an in-flight one.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		inFlight, arrived := 0, 0
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(body), "\n") {
				fmt.Sscanf(line, "compressd_admission_in_flight %d", &inFlight)
				fmt.Sscanf(line, "compressd_http_requests_total %d", &arrived)
			}
		}
		if inFlight > 0 && arrived >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never showed up in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGTERM)

	// Every in-flight request gets a real answer: 200 for the work,
	// 408 for the spins that trap on their deadline.
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Errorf("in-flight request dropped during drain: %v", r.err)
			continue
		}
		if r.status != 200 && r.status != 408 {
			t.Errorf("in-flight request = %d, want 200 or 408", r.status)
		}
	}

	// Late requests are refused: 503 while draining or connection
	// error once the listener is gone. They must never hang.
	resp, _, err := postJSON(base, "/v1/run", work)
	if err == nil && resp.StatusCode != 503 {
		t.Errorf("late request = %d, want 503 or refused", resp.StatusCode)
	}

	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within the drain budget")
	}
}

// TestCompressdChaosSmoke: a chaos-enabled daemon under a short mixed
// workload never answers 5xx and still drains cleanly — the CLI-level
// mirror of the in-process chaos soak.
func TestCompressdChaosSmoke(t *testing.T) {
	cmd, base := startCompressd(t,
		"-chaos-seed", "11", "-chaos-corrupt", "0.5", "-chaos-latency", "0.5",
		"-chaos-max-latency", "5ms", "-chaos-trap", "0.5")

	resp, body, err := postJSON(base, "/v1/compress", map[string]any{"source": sample})
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("compress: %v %s", err, body)
	}
	var cr struct {
		Artifact []byte `json:"artifact"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 30; i++ {
		path, req := "/v1/run", map[string]any{"source": sample}
		if i%2 == 0 {
			path, req = "/v1/decompress", map[string]any{"artifact": cr.Artifact}
		}
		resp, body, err := postJSON(base, path, req)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("iteration %d: chaos surfaced %d:\n%s", i, resp.StatusCode, body)
		}
	}

	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("chaos daemon did not drain cleanly: %v", err)
	}
}
