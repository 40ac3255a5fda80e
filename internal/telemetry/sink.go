package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one line of a JSONL trace. Type is "buildinfo" (the
// identifying header, first line of a tool trace), "span", "counter",
// "gauge", or "hist"; unused fields are zero.
type Event struct {
	Type    string         `json:"type"`
	Name    string         `json:"name"`
	Trace   string         `json:"trace,omitempty"` // hex trace ID shared by a run's spans
	ID      uint64         `json:"id,omitempty"`
	Parent  uint64         `json:"parent,omitempty"`
	GID     uint64         `json:"gid,omitempty"`      // starting goroutine's runtime ID
	StartUS int64          `json:"start_us,omitempty"` // offset from the recorder epoch
	DurUS   int64          `json:"dur_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []PointEvent   `json:"events,omitempty"` // span point events, in record order
	Value   float64        `json:"value,omitempty"`
	Count   int64          `json:"count,omitempty"`
	Sum     float64        `json:"sum,omitempty"`
	Min     float64        `json:"min,omitempty"`
	Max     float64        `json:"max,omitempty"`
	P50     float64        `json:"p50,omitempty"`
	P90     float64        `json:"p90,omitempty"`
	P99     float64        `json:"p99,omitempty"`
}

// PointEvent is one Span.Event mark as serialized inside a span line;
// AtUS shares the span's time base (recorder-epoch offset when the
// sink is anchored).
type PointEvent struct {
	Name  string         `json:"name"`
	AtUS  int64          `json:"at_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// attrMap converts span attributes to the JSON map shape shared by the
// JSONL sink, snapshots, and the trace_event exporter (nil when empty).
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// traceHex renders a trace ID for the wire formats (0 → "").
func traceHex(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// IntAttr returns an integer attribute of a parsed span event (JSON
// numbers decode as float64).
func (e Event) IntAttr(key string) (int64, bool) {
	v, ok := e.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// JSONL streams every finished span as one JSON line and, on Flush,
// appends the aggregate counters, gauges, and histograms. It is safe
// for concurrent use.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	rec *Recorder // for the epoch; may be nil (absolute timestamps)
	err error
}

// NewJSONL builds a JSONL sink writing to w. Attach the recorder whose
// epoch should anchor span timestamps with Anchor (optional).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Anchor sets the recorder whose epoch span start offsets are relative
// to, and returns the sink for chaining.
func (j *JSONL) Anchor(r *Recorder) *JSONL {
	j.mu.Lock()
	j.rec = r
	j.mu.Unlock()
	return j
}

func (j *JSONL) emit(e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil && j.err == nil {
		j.err = err
	}
}

// Header writes the identifying buildinfo line for a trace; call it
// once, before any span ends, so the first line of the file names the
// producing binary and the run's trace ID.
func (j *JSONL) Header(trace uint64, bi BuildInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emit(Event{Type: "buildinfo", Name: bi.Module, Trace: traceHex(trace), Attrs: bi.attrMap()})
}

// SpanEnd implements Sink.
func (j *JSONL) SpanEnd(sr SpanRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := Event{
		Type:   "span",
		Name:   sr.Name,
		Trace:  traceHex(sr.Trace),
		ID:     sr.ID,
		Parent: sr.Parent,
		GID:    sr.GID,
		DurUS:  sr.Dur.Microseconds(),
		Attrs:  attrMap(sr.Attrs),
	}
	if j.rec != nil {
		e.StartUS = sr.Start.Sub(j.rec.Epoch()).Microseconds()
	} else {
		e.StartUS = sr.Start.UnixMicro()
	}
	for _, ev := range sr.Events {
		pe := PointEvent{Name: ev.Name, Attrs: attrMap(ev.Attrs)}
		if j.rec != nil {
			pe.AtUS = ev.At.Sub(j.rec.Epoch()).Microseconds()
		} else {
			pe.AtUS = ev.At.UnixMicro()
		}
		e.Events = append(e.Events, pe)
	}
	j.emit(e)
}

// Flush implements Sink: it appends the aggregate metrics and flushes
// the underlying writer.
func (j *JSONL) Flush(counters map[string]int64, gauges map[string]float64, hists map[string]HistSnapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, k := range sortedKeys(counters) {
		j.emit(Event{Type: "counter", Name: k, Value: float64(counters[k])})
	}
	for _, k := range sortedKeys(gauges) {
		j.emit(Event{Type: "gauge", Name: k, Value: gauges[k]})
	}
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		j.emit(Event{Type: "hist", Name: k, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			P50: h.P50, P90: h.P90, P99: h.P99})
	}
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// ReadJSONL parses a JSONL trace back into events (the round-trip half
// used by tests and by consumers of -trace output).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// Collector is the in-memory sink for tests: it retains every span and
// the last flushed metric maps.
type Collector struct {
	mu       sync.Mutex
	spans    []SpanRecord
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]HistSnapshot
	flushes  int
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SpanEnd implements Sink.
func (c *Collector) SpanEnd(sr SpanRecord) {
	c.mu.Lock()
	c.spans = append(c.spans, sr)
	c.mu.Unlock()
}

// Flush implements Sink.
func (c *Collector) Flush(counters map[string]int64, gauges map[string]float64, hists map[string]HistSnapshot) error {
	c.mu.Lock()
	c.counters, c.gauges, c.hists = counters, gauges, hists
	c.flushes++
	c.mu.Unlock()
	return nil
}

// Spans returns the collected spans in end order.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanRecord(nil), c.spans...)
}

// Counters returns the last flushed counters (nil before any Flush).
func (c *Collector) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Gauges returns the last flushed gauges.
func (c *Collector) Gauges() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gauges
}
