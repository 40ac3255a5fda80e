package expose

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestToolLifecycle(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var summary bytes.Buffer
	tool, err := Start(Options{
		Trace: trace, Metrics: true,
		CPUProfile: cpu, MemProfile: mem,
		SummaryTo: &summary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tool.Rec == nil {
		t.Fatal("tool recorder not created")
	}
	sp := tool.Rec.StartSpan("work", telemetry.Int("bytes", 9))
	sp.End()
	tool.Rec.Add("count", 1)
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("trace has %d events, want span+counter", len(events))
	}
	if !strings.Contains(summary.String(), "work") || !strings.Contains(summary.String(), "count") {
		t.Errorf("summary missing content:\n%s", summary.String())
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

func TestToolDisabled(t *testing.T) {
	tool, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tool.Rec != nil {
		t.Error("recorder created with no observability flags")
	}
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestToolTraceOut: the tool writes the Chrome trace on Close, and
// Close is idempotent.
func TestToolTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tool, err := Start(Options{TraceOut: path, SummaryTo: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if tool.Rec == nil {
		t.Fatal("TraceOut did not create a recorder")
	}
	tool.Rec.StartSpan("s").End()
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tool.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) || !strings.Contains(string(data), "\"traceEvents\"") {
		t.Fatalf("trace file invalid: %.120s", data)
	}
}
