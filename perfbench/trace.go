package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/brisc"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// runTraced is the per-layer run. It sets up once with spans around
// every layer call, then alternates untraced and traced passes of the
// main loop (the difference is trace.overhead_pct), runs the
// load-and-run phase traced, and finishes with probes for costs no
// single public call isolates. Spans stay in memory and are written as
// JSONL to traceFile at the end.
func runTraced(sp *spec, seed int64, d time.Duration, traceFile string) (*runResult, error) {
	rec := telemetry.New()
	pool := parallel.NewTraced(runtime.GOMAXPROCS(0), rec)

	stopBusy := sampleBusy(pool)
	progs, err := buildAll(sp.sources(seed), pool, rec)
	busy := stopBusy()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var svcRec *telemetry.Recorder
	if sp.name == "serve" {
		svcRec = telemetry.New()
	}
	e, err := newEnv(sp, seed, progs, pool, &calibration{}, svcRec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.busy = append(e.busy, busy)

	var stopQueued func() float64
	if e.svc != nil {
		stopQueued = e.svc.sampleQueued()
	}
	mainD := sp.mainTime(d)
	// Alternate off/on passes, ending on an equal count of each. A
	// pass's time is what it adds to the main loop's elapsed time.
	var took [2]time.Duration
	var n [2]int
	for i, start := 0, time.Now(); time.Since(start) < mainD || n[0] != n[1]; i++ {
		on := i % 2
		rec.SetEnabled(on == 1)
		svcRec.SetEnabled(on == 1)
		before := e.main().elapsed
		e.pass(rec)
		took[on] += e.main().elapsed - before
		n[on]++
	}
	rec.SetEnabled(true)
	svcRec.SetEnabled(true)
	overhead := (took[1].Seconds() - took[0].Seconds()) / took[0].Seconds() * 100

	res := &runResult{tally: e.main().tally}
	var served *reqStats
	queued := 0.0
	if e.svc != nil {
		served, queued = &e.served, stopQueued()
	} else {
		s, q, err := probeService(seed, pool, rec)
		if err != nil {
			return nil, err
		}
		res.merge(s.tally)
		served, queued = s, q
	}
	if sp.ownLoop {
		e.paths.runFor(d-mainD, rec)
		res.merge(e.paths.tally)
	}
	if err := probe(progs, sp.budget, rec); err != nil {
		return nil, err
	}

	layers := aggregate(rec.Spans())
	m, err := perLayer(layers, e, served, queued)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = overhead
	res.metrics = m
	return res, writeTrace(traceFile, rec)
}

// probeService measures compressd for workloads whose main loop does
// not reach it: the serve mix over the serve inputs of this seed, two
// passes, with only the requests traced.
func probeService(seed int64, pool *parallel.Pool, rec *telemetry.Recorder) (*reqStats, float64, error) {
	progs, err := buildAll(serveSources(seed), pool, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("service probe set-up: %w", err)
	}
	svc, err := startService(progs, serveMix(seed, len(progs)), telemetry.New())
	if err != nil {
		return nil, 0, err
	}
	stop := svc.sampleQueued()
	var st reqStats
	for i := 0; i < 2; i++ {
		svc.pass(rec, &st, &calibration{})
	}
	queued := stop()
	return &st, queued, svc.close()
}

// probe times, per program, what no single public call isolates:
// predecode (a first Run on a fresh Object minus a warm rerun), the cost
// of a fault (a paged run minus the warm run of the same steps, over the
// faults), and one page load from the store.
func probe(progs []*program, budget int, rec *telemetry.Recorder) error {
	for _, p := range progs {
		limit := 8*p.steps + 1_000_000
		obj, err := brisc.Parse(p.brisc)
		if err != nil {
			return err
		}
		it := brisc.NewInterp(obj, 0, io.Discard)
		sp := span(rec, "brisc.first_run")
		_, err = it.Run(limit)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		it.Reset()
		sp = span(rec, "brisc.warm_run")
		_, err = it.Run(limit)
		sp.SetAttr(telemetry.Int("steps", it.Steps))
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}

		pobj, err := brisc.Parse(p.brisc)
		if err != nil {
			return err
		}
		img, err := brisc.OpenXIPStore(pobj, p.xip, brisc.XIPOptions{})
		if err != nil {
			return err
		}
		xit := brisc.NewInterp(pobj, 0, io.Discard)
		if err := xit.EnableXIP(img, budget, 0); err != nil {
			return err
		}
		sp = span(rec, "xip.paged_run")
		_, err = xit.Run(limit)
		sp.SetAttr(telemetry.Int("faults", xit.XIPStats().Faults))
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		for pg := 0; pg < img.NumPages(); pg++ {
			sp := span(rec, "paging.page")
			_, err := img.Store().Page(pg)
			sp.End()
			if err != nil {
				return fmt.Errorf("%s page %d: %w", p.name, pg, err)
			}
		}
	}
	return nil
}

// layer aggregates the spans of one name.
type layer struct {
	n     int
	total time.Duration
	durs  []time.Duration
	attrs map[string][]int64 // integer attribute values, one per span that set it
}

func (l *layer) msPerCall() float64 { return ms(l.total) / float64(l.n) }

func (l *layer) sum(attr string) int64 {
	var s int64
	for _, v := range l.attrs[attr] {
		s += v
	}
	return s
}

// perSecond is an integer attribute summed over the spans, per second
// of their total time.
func (l *layer) perSecond(attr string) float64 { return float64(l.sum(attr)) / l.total.Seconds() }

// aggregate groups the benchmark's spans by layer name ("bench." is
// dropped), plus the wire decoder's own inflate and parse spans under
// them.
func aggregate(spans []telemetry.SpanRecord) map[string]*layer {
	byID := make(map[uint64]*telemetry.SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	underDecompress := func(s *telemetry.SpanRecord) bool {
		for p := byID[s.Parent]; p != nil; p = byID[p.Parent] {
			if p.Name == "bench.wire.decompress" {
				return true
			}
		}
		return false
	}
	out := map[string]*layer{}
	for i := range spans {
		s := &spans[i]
		name, ok := strings.CutPrefix(s.Name, "bench.")
		if !ok {
			if (s.Name != "wire.unfinal" && s.Name != "wire.parse") || !underDecompress(s) {
				continue
			}
			name = s.Name
		}
		l := out[name]
		if l == nil {
			l = &layer{attrs: map[string][]int64{}}
			out[name] = l
		}
		l.n++
		l.total += s.Dur
		l.durs = append(l.durs, s.Dur)
		for _, a := range s.Attrs {
			if v, ok := a.Value.(int64); ok {
				l.attrs[a.Key] = append(l.attrs[a.Key], v)
			}
		}
	}
	return out
}

// perLayer computes every per-layer metric. A layer without spans is
// an error: the run did not measure what the benchmark promises.
func perLayer(ls map[string]*layer, e *env, served *reqStats, queued float64) (map[string]float64, error) {
	var missing []string
	get := func(name string) *layer {
		if l := ls[name]; l != nil {
			return l
		}
		missing = append(missing, name)
		return &layer{n: 1, total: 1}
	}
	dec := get("wire.decompress")
	first, warm := get("brisc.first_run"), get("brisc.warm_run")
	paged := get("xip.paged_run")

	m := map[string]float64{
		"cc.compile.ms_per_call":         get("cc.compile").msPerCall(),
		"cc.compile.src_kb_per_s":        get("cc.compile").perSecond("src_bytes") / 1024,
		"codegen.generate.ms_per_call":   get("codegen.generate").msPerCall(),
		"wire.compress.ms_per_call":      get("wire.compress").msPerCall(),
		"wire.compress.mb_per_s":         get("wire.compress").perSecond("native_bytes") / 1e6,
		"wire.decompress.ms_per_call":    dec.msPerCall(),
		"wire.decompress.mb_per_s":       dec.perSecond("bytes_in") / 1e6,
		"wire.decompress.inflate_ms":     ms(get("wire.unfinal").total) / float64(dec.n),
		"wire.decompress.parse_ms":       ms(get("wire.parse").total) / float64(dec.n),
		"brisc.compress.ms_per_call":     get("brisc.compress").msPerCall(),
		"brisc.compress.kinstrs_per_s":   get("brisc.compress").perSecond("instrs") / 1e3,
		"brisc.parse.ms_per_call":        get("brisc.parse").msPerCall(),
		"brisc.new_interp.ms_per_call":   get("brisc.new_interp").msPerCall(),
		"brisc.predecode.ms_per_call":    first.msPerCall() - warm.msPerCall(),
		"brisc.dispatch.steps_per_s":     warm.perSecond("steps"),
		"xip.open.ms_per_call":           get("xip.open").msPerCall(),
		"xip.ms_per_fault":               (ms(paged.total) - ms(warm.total)) / float64(paged.sum("faults")),
		"paging.page.us_per_call":        get("paging.page").msPerCall() * 1e3,
		"xip.run.steps_per_s":            get("xip.run").perSecond("steps"),
		"jit.translate.ms_per_call":      get("jit.translate").msPerCall(),
		"jit.translate.mb_per_s":         get("jit.translate").perSecond("code_bytes") / 1e6,
		"vm.new_machine.ms_per_call":     get("vm.new_machine").msPerCall(),
		"vm.run.steps_per_s":             get("vm.run").perSecond("steps"),
		"parallel.wait_ms_p50":           medianInt(get("parallel.task").attrs["wait_us"]) / 1e3,
		"parallel.busy_frac":             meanFloat(e.busy),
		"compressd.compress.ms_p50":      ms(quantile(get("compressd.compress").durs, 0.5)),
		"compressd.run.ms_p50":           ms(quantile(get("compressd.run").durs, 0.5)),
		"compressd.shed_ratio":           float64(served.shed) / float64(served.attempted),
		"compressd.admission.queued_max": queued,
		"irexec.run.ms_per_call":         get("irexec.run").msPerCall(),
	}
	// The deterministic counts: per distinct program, so they repeat
	// exactly at one seed whatever the run's length.
	var dict, steps, faults, hits, evictions int64
	for _, p := range e.progs {
		dict += int64(p.dict)
	}
	bOut, xOut := e.paths.outcomes(pathBrisc), e.paths.outcomes(pathXIP)
	for _, oc := range bOut {
		steps += oc.steps
	}
	for _, oc := range xOut {
		faults += oc.xip.Faults
		hits += oc.xip.Hits
		evictions += oc.xip.Evictions
	}
	m["brisc.compress.dict_patterns"] = float64(dict) / float64(len(e.progs))
	m["brisc.steps_per_op"] = float64(steps) / float64(len(bOut))
	m["xip.faults_per_op"] = float64(faults) / float64(len(xOut))
	m["xip.evictions_per_op"] = float64(evictions) / float64(len(xOut))
	m["xip.miss_ratio"] = float64(faults) / float64(faults+hits)
	if len(missing) > 0 {
		return nil, fmt.Errorf("no spans for layers %v", missing)
	}
	return m, nil
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return medianFloat(f)
}

func meanFloat(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// writeTrace writes every recorded span and the recorder's aggregates
// as JSONL, the format `tracescope report` reads.
func writeTrace(file string, rec *telemetry.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	sink := telemetry.NewJSONL(w).Anchor(rec)
	sink.Header(rec.TraceID(), telemetry.GetBuildInfo())
	for _, s := range rec.Spans() {
		sink.SpanEnd(s)
	}
	if err := sink.Flush(rec.Counters(), rec.Gauges(), rec.Histograms()); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// sampleBusy samples pool occupancy every millisecond until stop is
// called, which returns the mean busy fraction of the pool's workers.
func sampleBusy(pool *parallel.Pool) (stop func() float64) {
	done := make(chan struct{})
	var sum, n atomic.Int64
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				st := pool.Stats()
				sum.Add(int64(st.Busy * 1000 / st.Workers))
				n.Add(1)
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		if n.Load() == 0 {
			return 0
		}
		return float64(sum.Load()) / float64(n.Load()) / 1000
	}
}
