// Package telemetry is the repository's dependency-free observability
// layer. Every stage of the two compression pipelines — the
// compile→patternize→MTF→Huffman→LZ wire encoder (§3) and the BRISC
// greedy compressor, interpreter, and JIT (§4) — reports into a
// Recorder as hierarchical spans (wall time plus byte-delta
// attributes), counters, gauges, and histograms. Pluggable sinks
// consume the data: a JSONL trace writer for machine-readable output,
// an in-memory Collector for tests, and a human-readable summary
// printer shared by the command-line tools.
//
// Every hook is nil-safe and cheap when disabled: a nil *Recorder (or
// one with the atomic enabled flag cleared) turns every call into a
// single predictable branch, so hot loops such as the BRISC
// interpreter's dispatch pay nothing in the default configuration.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span (byte deltas,
// pass numbers, stage names).
type Attr struct {
	Key   string
	Value any
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Value: v} }

// SpanEvent is a point-in-time mark inside a span (a rewrite commit, a
// segment flush): a name, a timestamp, and optional attributes.
type SpanEvent struct {
	Name  string
	At    time.Time
	Attrs []Attr
}

// SpanRecord is a finished span as delivered to sinks and returned by
// Recorder.Spans. Trace is the recorder's trace ID, shared by every
// span of one run; (Trace, ID, Parent) is the identity triple the
// JSONL and Chrome trace_event exporters thread through unchanged. GID
// is the runtime ID of the goroutine that started the span — spans on
// one goroutine nest properly, so exporters use it as the thread track.
type SpanRecord struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for root spans
	GID    uint64 // starting goroutine's runtime ID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
	Events []SpanEvent
}

// Span is an in-flight span. A nil *Span (returned when telemetry is
// disabled) accepts every method as a no-op. A Span is owned by the
// goroutine that started it: SetAttr, Event, and End are not safe for
// concurrent use on one span.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	gid    uint64
	name   string
	start  time.Time
	attrs  []Attr
	events []SpanEvent
	ended  bool
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Event records a point-in-time mark inside the span (delivered with
// the span when it ends).
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, At: time.Now(), Attrs: attrs})
}

// End finishes the span, recording its duration and handing it to the
// recorder's sinks. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.endSpan(s)
}

// HistSnapshot summarizes one histogram: the exact moments plus
// p50/p90/p99 quantiles estimated from a bounded systematic sample of
// the observations (exact until the sample cap is reached).
type HistSnapshot struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P99   float64
}

// Mean returns the histogram mean (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// histMaxSamples bounds the per-histogram quantile sample. When the
// buffer fills, every other sample is dropped and the keep stride
// doubles, so memory stays flat while the sample remains a uniform
// systematic thinning of the full observation stream — deterministic,
// unlike reservoir sampling.
const histMaxSamples = 512

// hist is the live aggregation behind one histogram name.
type hist struct {
	count    int64
	sum      float64
	min, max float64
	stride   int64 // keep every stride-th observation
	seen     int64
	samples  []float64
}

func (h *hist) observe(v float64) {
	if h.count == 0 {
		h.min, h.max = v, v
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if h.seen%h.stride == 0 {
		if h.samples == nil {
			h.samples = make([]float64, 0, histMaxSamples)
		}
		if len(h.samples) == histMaxSamples {
			// Decimate in place: i moves at least as fast as the write
			// cursor, so no overlap issues.
			keep := h.samples[:0]
			for i := 0; i < histMaxSamples; i += 2 {
				keep = append(keep, h.samples[i])
			}
			h.samples = keep
			h.stride *= 2
		}
		h.samples = append(h.samples, v)
	}
	h.seen++
}

func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if len(h.samples) > 0 {
		sorted := append([]float64(nil), h.samples...)
		sort.Float64s(sorted)
		s.P50 = quantile(sorted, 0.50)
		s.P90 = quantile(sorted, 0.90)
		s.P99 = quantile(sorted, 0.99)
	}
	return s
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Sink consumes telemetry as it is produced. SpanEnd is called for
// every finished span; Flush receives the aggregate counters, gauges,
// and histograms (called by Recorder.Close).
type Sink interface {
	SpanEnd(sr SpanRecord)
	Flush(counters map[string]int64, gauges map[string]float64, hists map[string]HistSnapshot) error
}

// Recorder aggregates spans and metrics. The zero value is unusable;
// construct with New. All methods are safe on a nil receiver, and all
// mutating methods first consult an atomic enabled flag so a disabled
// recorder costs one atomic load per call.
type Recorder struct {
	enabled atomic.Bool
	trace   uint64 // trace ID stamped on every span; immutable after New

	mu       sync.Mutex
	epoch    time.Time
	nextID   uint64
	stacks   map[uint64][]uint64 // per-goroutine open span ids; top is the current parent
	spans    []SpanRecord
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
	sinks    []Sink
	closed   bool

	// Flight recorder: a fixed ring of the most recent span/counter
	// events, dumped on traps and fatal paths. See flight.go.
	flight     []FlightEvent
	flightNext int
	flightLen  int
	flightSeq  uint64
	flightW    flightWriter
	tripped    bool
}

// traceCounter and traceBase derive process-unique trace IDs: a
// per-process random-ish base (from the clock at init) advanced by a
// counter and bit-mixed, so concurrent recorders in one process and
// recorders across processes land on distinct IDs.
var (
	traceCounter atomic.Uint64
	traceBase    = uint64(time.Now().UnixNano())
)

func newTraceID() uint64 {
	x := traceBase + traceCounter.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	if x == 0 {
		x = 1
	}
	return x
}

// New returns an enabled recorder with no sinks attached.
func New() *Recorder {
	r := &Recorder{
		epoch:    time.Now(),
		trace:    newTraceID(),
		stacks:   map[uint64][]uint64{},
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*hist{},
	}
	r.enabled.Store(true)
	return r
}

// TraceID returns the recorder's trace identity (0 for a nil
// recorder); every span it records carries it.
func (r *Recorder) TraceID() uint64 {
	if r == nil {
		return 0
	}
	return r.trace
}

// Enabled reports whether the recorder accepts data. A nil recorder is
// disabled.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled toggles recording; clearing the flag makes every hook a
// no-op without detaching instrumented components.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Epoch returns the recorder's creation time; JSONL span timestamps
// are offsets from it.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// AttachSink registers a sink for finished spans and final metrics.
func (r *Recorder) AttachSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
}

// StartSpan opens a span as a child of the most recent unfinished span
// started on the calling goroutine. Parenting is per goroutine — spans
// started concurrently from pool workers do not nest under each other —
// so a span opened on a freshly spawned goroutine is a root unless the
// caller threads the submitting span through StartSpanUnder. StartSpan
// returns nil when disabled; every method of a nil *Span is a no-op.
func (r *Recorder) StartSpan(name string, attrs ...Attr) *Span {
	if !r.Enabled() {
		return nil
	}
	return r.startSpan(curGID(), name, attrs, false, 0)
}

// StartSpanUnder opens a span as an explicit child of parent (the
// value of CurrentSpanID captured on another goroutine; 0 starts a
// root). It is how fan-out code stitches worker-goroutine spans under
// the span that submitted the work.
func (r *Recorder) StartSpanUnder(parent uint64, name string, attrs ...Attr) *Span {
	if !r.Enabled() {
		return nil
	}
	return r.startSpan(curGID(), name, attrs, true, parent)
}

func (r *Recorder) startSpan(gid uint64, name string, attrs []Attr, explicit bool, parent uint64) *Span {
	r.mu.Lock()
	r.nextID++
	s := &Span{rec: r, id: r.nextID, gid: gid, name: name, attrs: attrs}
	if explicit {
		s.parent = parent
	} else if st := r.stacks[gid]; len(st) > 0 {
		s.parent = st[len(st)-1]
	}
	r.stacks[gid] = append(r.stacks[gid], s.id)
	r.mu.Unlock()
	s.start = time.Now()
	return s
}

// CurrentSpanID returns the ID of the innermost unfinished span started
// on the calling goroutine (0 when none, or when disabled). Capture it
// before handing work to another goroutine and pass it to
// StartSpanUnder there.
func (r *Recorder) CurrentSpanID() uint64 {
	if !r.Enabled() {
		return 0
	}
	gid := curGID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.stacks[gid]; len(st) > 0 {
		return st[len(st)-1]
	}
	return 0
}

func (r *Recorder) endSpan(s *Span) {
	dur := time.Since(s.start)
	sr := SpanRecord{
		Trace:  r.trace,
		ID:     s.id,
		Parent: s.parent,
		GID:    s.gid,
		Name:   s.name,
		Start:  s.start,
		Dur:    dur,
		Attrs:  s.attrs,
		Events: s.events,
	}
	r.mu.Lock()
	// Pop this goroutine's stack down to (and including) this span;
	// spans ended out of order implicitly end their unfinished children.
	// Empty stacks are deleted so short-lived goroutines don't leak map
	// entries.
	st := r.stacks[s.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == s.id {
			st = st[:i]
			break
		}
	}
	if len(st) == 0 {
		delete(r.stacks, s.gid)
	} else {
		r.stacks[s.gid] = st
	}
	r.spans = append(r.spans, sr)
	r.flightRecord(FlightEvent{When: s.start, Kind: "span", Name: s.name, Dur: dur, Attrs: s.attrs})
	sinks := r.sinks
	r.mu.Unlock()
	for _, sk := range sinks {
		sk.SpanEnd(sr)
	}
}

// Add increments a counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if !r.Enabled() || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.flightRecord(FlightEvent{Kind: "counter", Name: name, Value: delta})
	r.mu.Unlock()
}

// SetGauge records the latest value of a named quantity (sizes,
// ratios, throughputs).
func (r *Recorder) SetGauge(name string, v float64) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one sample to a histogram.
func (r *Recorder) Observe(name string, v float64) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &hist{stride: 1}
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 if absent).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Histogram returns a copy of the named histogram.
func (r *Recorder) Histogram(name string) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h.snapshot()
	}
	return HistSnapshot{}
}

// Spans returns a copy of the finished spans in end order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// Counters returns a copy of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of all gauges.
func (r *Recorder) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Histograms returns a copy of all histograms.
func (r *Recorder) Histograms() map[string]HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for k, v := range r.hists {
		out[k] = v.snapshot()
	}
	return out
}

// Close flushes aggregate metrics to every sink, once: Close is
// idempotent, so a fatal-path flush racing a deferred one cannot
// double-flush (or double-close) the sinks. The recorder itself
// remains usable for recording afterwards.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	sinks := append([]Sink(nil), r.sinks...)
	r.mu.Unlock()
	counters := r.Counters()
	gauges := r.Gauges()
	hists := r.Histograms()
	var first error
	for _, s := range sinks {
		if err := s.Flush(counters, gauges, hists); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sortedKeys returns map keys in stable order (shared by the sinks).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
