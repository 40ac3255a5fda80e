package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantiles pins the nearest-rank quantiles on an exact
// (unsampled) distribution.
func TestHistogramQuantiles(t *testing.T) {
	r := New()
	defer r.Close()
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i))
	}
	h := r.Histogram("lat")
	if h.P50 != 50 || h.P90 != 90 || h.P99 != 99 {
		t.Fatalf("quantiles = p50=%v p90=%v p99=%v, want 50/90/99", h.P50, h.P90, h.P99)
	}
	if h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("moments = n=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
}

// TestHistogramQuantilesSampled drives far more observations than the
// sample buffer holds: the deterministic decimation must keep the
// quantile estimates close, and min/max/count stay exact.
func TestHistogramQuantilesSampled(t *testing.T) {
	r := New()
	defer r.Close()
	const n = 100_000
	for i := 1; i <= n; i++ {
		r.Observe("lat", float64(i))
	}
	h := r.Histogram("lat")
	if h.Count != n || h.Min != 1 || h.Max != n {
		t.Fatalf("moments = n=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
	// Systematic sampling of a monotone stream keeps quantiles within a
	// stride of their true position; 2% slack is generous.
	for _, q := range []struct {
		got, want float64
	}{{h.P50, 0.50 * n}, {h.P90, 0.90 * n}, {h.P99, 0.99 * n}} {
		if q.got < q.want-0.02*n || q.got > q.want+0.02*n {
			t.Fatalf("sampled quantile %v too far from %v", q.got, q.want)
		}
	}
}

// TestFlightRecorderRing exercises wraparound: only the most recent N
// events survive, oldest first.
func TestFlightRecorderRing(t *testing.T) {
	r := New()
	defer r.Close()
	r.EnableFlight(4)
	for i := 0; i < 10; i++ {
		r.Add("tick", int64(i))
	}
	evs := r.FlightEvents()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Value != want {
			t.Fatalf("event %d value = %d, want %d", i, e.Value, want)
		}
		if e.Kind != "counter" || e.Name != "tick" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	if evs[0].Seq+3 != evs[3].Seq {
		t.Fatalf("sequence numbers not consecutive: %d..%d", evs[0].Seq, evs[3].Seq)
	}
}

// TestFlightRecorderSpans verifies finished spans land in the ring.
func TestFlightRecorderSpans(t *testing.T) {
	r := New()
	defer r.Close()
	r.EnableFlight(8)
	sp := r.StartSpan("work", String("file", "a.mc"))
	sp.End()
	evs := r.FlightEvents()
	if len(evs) != 1 || evs[0].Kind != "span" || evs[0].Name != "work" {
		t.Fatalf("flight events = %+v", evs)
	}
	var buf bytes.Buffer
	r.DumpFlight(&buf, "test")
	out := buf.String()
	if !strings.Contains(out, "flight recorder: test (1 events)") ||
		!strings.Contains(out, "work") || !strings.Contains(out, "file=a.mc") {
		t.Fatalf("dump = %q", out)
	}
}

// TestTripDumpsOnce: the first trip dumps the ring to the configured
// output; later trips only count.
func TestTripDumpsOnce(t *testing.T) {
	r := New()
	defer r.Close()
	r.EnableFlight(8)
	var out bytes.Buffer
	r.SetFlightOutput(&out)
	r.Add("steps", 100)
	r.Trip("limit exceeded")
	first := out.Len()
	if first == 0 || !strings.Contains(out.String(), "limit exceeded") {
		t.Fatalf("first trip did not dump: %q", out.String())
	}
	r.Trip("again")
	if out.Len() != first {
		t.Fatalf("second trip dumped again")
	}
	if c := r.Counters()["telemetry.flight.trips"]; c != 2 {
		t.Fatalf("trips counter = %d, want 2", c)
	}
}

// TestCloseIdempotent is the regression test for the fatal-path flush:
// two Closes (a trip-triggered one racing a deferred one) must flush
// the sinks exactly once and the second must return nil.
func TestCloseIdempotent(t *testing.T) {
	r := New()
	c := NewCollector()
	r.AttachSink(c)
	r.Add("x", 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if c.flushes != 1 {
		t.Fatalf("flushes = %d, want 1 after double Close", c.flushes)
	}
}

// TestTraceIdentity: every span of a recorder carries the recorder's
// trace ID, and distinct recorders get distinct IDs.
func TestTraceIdentity(t *testing.T) {
	r1, r2 := New(), New()
	defer r1.Close()
	defer r2.Close()
	if r1.TraceID() == 0 || r1.TraceID() == r2.TraceID() {
		t.Fatalf("trace ids %x and %x", r1.TraceID(), r2.TraceID())
	}
	sp := r1.StartSpan("outer")
	r1.StartSpan("inner").End()
	sp.End()
	for _, sr := range r1.Spans() {
		if sr.Trace != r1.TraceID() {
			t.Fatalf("span %s trace %x, want %x", sr.Name, sr.Trace, r1.TraceID())
		}
	}
	var nilRec *Recorder
	if nilRec.TraceID() != 0 {
		t.Fatal("nil recorder has a trace ID")
	}
}

// TestWriteTraceEvents pins the Chrome trace_event export: valid JSON,
// one X event per span, consistent trace IDs, counters as C events.
func TestWriteTraceEvents(t *testing.T) {
	r := New()
	outer := r.StartSpan("compress")
	r.StartSpan("huffman").End()
	outer.End()
	r.Add("bytes", 42)
	r.Close()

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var xs, cs int
	traceIDs := map[any]bool{}
	var rootTID uint64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xs++
			traceIDs[e.Args["trace_id"]] = true
			if e.Name == "compress" {
				rootTID = e.TID
			}
		case "C":
			cs++
		}
	}
	if xs != 2 || cs != 1 {
		t.Fatalf("X=%d C=%d, want 2/1", xs, cs)
	}
	if len(traceIDs) != 1 {
		t.Fatalf("inconsistent trace ids: %v", traceIDs)
	}
	// The child renders on its root ancestor's track.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "huffman" && e.TID != rootTID {
			t.Fatalf("huffman tid %d, want root track %d", e.TID, rootTID)
		}
	}
}

// TestSampler: the runtime sampler populates the runtime.* gauges and
// caller probes, and its stop function is idempotent.
func TestSampler(t *testing.T) {
	r := New()
	defer r.Close()
	stop := StartSampler(r, time.Millisecond, Probe{Name: "custom.probe", Fn: func() float64 { return 7 }})
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	g := r.Gauges()
	for _, k := range []string{"runtime.heap_alloc_bytes", "runtime.goroutines", "runtime.gc_count", "custom.probe"} {
		if _, ok := g[k]; !ok {
			t.Fatalf("gauge %s missing; have %v", k, g)
		}
	}
	if g["custom.probe"] != 7 {
		t.Fatalf("probe gauge = %v", g["custom.probe"])
	}
	// No-op forms.
	StartSampler(nil, time.Second)()
	StartSampler(r, 0)()
}
