package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	r := New()
	c := NewCollector()
	r.AttachSink(c)

	root := r.StartSpan("root")
	childA := r.StartSpan("childA")
	grand := r.StartSpan("grand")
	grand.End()
	childA.End()
	childB := r.StartSpan("childB", Int("bytes", 7))
	childB.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// End order: grand, childA, childB, root.
	wantNames := []string{"grand", "childA", "childB", "root"}
	byName := map[string]SpanRecord{}
	for i, sr := range spans {
		if sr.Name != wantNames[i] {
			t.Errorf("span %d = %q, want %q", i, sr.Name, wantNames[i])
		}
		byName[sr.Name] = sr
	}
	if byName["childA"].Parent != byName["root"].ID {
		t.Errorf("childA parent = %d, want root %d", byName["childA"].Parent, byName["root"].ID)
	}
	if byName["childB"].Parent != byName["root"].ID {
		t.Errorf("childB parent = %d, want root %d", byName["childB"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["childA"].ID {
		t.Errorf("grand parent = %d, want childA %d", byName["grand"].Parent, byName["childA"].ID)
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if got := c.Spans(); len(got) != 4 {
		t.Errorf("collector got %d spans, want 4", len(got))
	}
	if len(byName["childB"].Attrs) != 1 || byName["childB"].Attrs[0].Key != "bytes" {
		t.Errorf("childB attrs = %v", byName["childB"].Attrs)
	}
}

func TestSpanOutOfOrderEndPopsChildren(t *testing.T) {
	r := New()
	outer := r.StartSpan("outer")
	_ = r.StartSpan("leaked") // never explicitly ended
	outer.End()
	after := r.StartSpan("after")
	after.End()
	spans := r.Spans()
	for _, sr := range spans {
		if sr.Name == "after" && sr.Parent != 0 {
			t.Errorf("after should be a root span, parent=%d", sr.Parent)
		}
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Add("x", 2)
	r.Add("x", 3)
	r.Add("zero", 0) // no-op delta
	r.SetGauge("g", 1.5)
	r.SetGauge("g", 2.5)
	for _, v := range []float64{1, 2, 3, 10} {
		r.Observe("h", v)
	}
	if got := r.Counter("x"); got != 5 {
		t.Errorf("counter x = %d, want 5", got)
	}
	if _, ok := r.Counters()["zero"]; ok {
		t.Error("zero-delta Add should not create a counter")
	}
	if g := r.Gauges()["g"]; g != 2.5 {
		t.Errorf("gauge g = %v, want 2.5", g)
	}
	h := r.Histogram("h")
	if h.Count != 4 || h.Sum != 16 || h.Min != 1 || h.Max != 10 {
		t.Errorf("hist h = %+v", h)
	}
	if h.Mean() != 4 {
		t.Errorf("hist mean = %v, want 4", h.Mean())
	}
}

func TestNilAndDisabledRecorderAreNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	sp := r.StartSpan("x", Int("a", 1))
	sp.SetAttr(Int("b", 2))
	sp.End()
	r.Add("c", 1)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if r.Counter("c") != 0 || len(r.Spans()) != 0 {
		t.Error("nil recorder retained data")
	}

	d := New()
	d.SetEnabled(false)
	if sp := d.StartSpan("x"); sp != nil {
		t.Error("disabled recorder returned a live span")
	}
	d.Add("c", 1)
	d.Observe("h", 1)
	d.SetGauge("g", 1)
	if d.Counter("c") != 0 || len(d.Spans()) != 0 {
		t.Error("disabled recorder retained data")
	}
	d.SetEnabled(true)
	d.Add("c", 1)
	if d.Counter("c") != 1 {
		t.Error("re-enabled recorder dropped data")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
				r.Observe("h", float64(i))
			}
			sp := r.StartSpan("work")
			sp.End()
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Errorf("counter n = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count; got != 8000 {
		t.Errorf("hist count = %d, want 8000", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.AttachSink(NewJSONL(&buf).Anchor(r))

	parent := r.StartSpan("compress", Int("bytes_in", 100))
	child := r.StartSpan("stage", Int("bytes", 40), String("kind", "metadata"))
	child.End()
	parent.SetAttr(Int("bytes_out", 25))
	parent.End()
	r.Add("units", 12)
	r.SetGauge("ratio", 4.0)
	r.Observe("sizes", 3)
	r.Observe("sizes", 5)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans, counters, gauges, hists []Event
	for _, e := range events {
		switch e.Type {
		case "span":
			spans = append(spans, e)
		case "counter":
			counters = append(counters, e)
		case "gauge":
			gauges = append(gauges, e)
		case "hist":
			hists = append(hists, e)
		}
	}
	if len(spans) != 2 || len(counters) != 1 || len(gauges) != 1 || len(hists) != 1 {
		t.Fatalf("events: spans=%d counters=%d gauges=%d hists=%d", len(spans), len(counters), len(gauges), len(hists))
	}
	if spans[0].Name != "stage" || spans[1].Name != "compress" {
		t.Errorf("span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("stage parent=%d, compress id=%d", spans[0].Parent, spans[1].ID)
	}
	if v, ok := spans[0].IntAttr("bytes"); !ok || v != 40 {
		t.Errorf("stage bytes attr = %d,%v", v, ok)
	}
	if v, ok := spans[1].IntAttr("bytes_out"); !ok || v != 25 {
		t.Errorf("compress bytes_out attr = %d,%v (attrs set after StartSpan must survive)", v, ok)
	}
	if counters[0].Name != "units" || counters[0].Value != 12 {
		t.Errorf("counter event = %+v", counters[0])
	}
	if gauges[0].Name != "ratio" || gauges[0].Value != 4.0 {
		t.Errorf("gauge event = %+v", gauges[0])
	}
	if hists[0].Count != 2 || hists[0].Sum != 8 || hists[0].Min != 3 || hists[0].Max != 5 {
		t.Errorf("hist event = %+v", hists[0])
	}
}

func TestCollectorFlush(t *testing.T) {
	r := New()
	c := NewCollector()
	r.AttachSink(c)
	r.Add("a", 1)
	r.SetGauge("g", 2)
	r.Observe("h", 3)
	if c.flushes != 0 {
		t.Fatal("premature flush")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if c.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", c.flushes)
	}
	if c.Counters()["a"] != 1 || c.Gauges()["g"] != 2 || c.hists["h"].Count != 1 {
		t.Errorf("collector state: %v %v %v", c.Counters(), c.Gauges(), c.hists)
	}
}

func TestWriteSummary(t *testing.T) {
	r := New()
	root := r.StartSpan("pipeline")
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("pass")
		sp.End()
	}
	root.End()
	r.Add("bytes_out", 123)
	r.SetGauge("ratio", 4.5)
	r.Observe("unit_size", 2)

	var buf bytes.Buffer
	WriteSummary(&buf, r)
	out := buf.String()
	for _, want := range []string{"pipeline", "pass", "3×", "bytes_out", "123", "ratio", "4.500", "unit_size", "n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Children indent under parents.
	if !strings.Contains(out, "  pass") {
		t.Errorf("pass not indented under pipeline:\n%s", out)
	}
}

// Governor and corruption counters route to a dedicated traps section
// ahead of the general counters, and are not double-printed.
func TestWriteSummaryTraps(t *testing.T) {
	r := New()
	r.Add("vm.governor.steps", 2)
	r.Add("wire.corrupt", 1)
	r.Add("bytes_out", 99)

	var buf bytes.Buffer
	WriteSummary(&buf, r)
	out := buf.String()
	trapsAt := strings.Index(out, "-- traps --")
	countersAt := strings.Index(out, "-- counters --")
	if trapsAt < 0 || countersAt < 0 || trapsAt > countersAt {
		t.Fatalf("traps section missing or misplaced:\n%s", out)
	}
	for _, want := range []string{"vm.governor.steps", "wire.corrupt", "bytes_out"} {
		if strings.Count(out, want) != 1 {
			t.Errorf("%q should appear exactly once:\n%s", want, out)
		}
	}
	if strings.Index(out, "vm.governor.steps") > countersAt {
		t.Errorf("trap counter printed under counters, not traps:\n%s", out)
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	r := New()
	sp := r.StartSpan("s", Int("n", 1))
	sp.End()
	r.Add("c", 2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"counters"`, `"c": 2`, `"spans"`, `"name": "s"`} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}
