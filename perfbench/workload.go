package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// XIP page budgets. Cold-start images have about 100 pages, so 8 keeps
// the budget far below the code the run touches. Every other program
// has at most about 40, so 64 holds every page and a run takes no
// capacity fault: the hot-loop sweep's cross-page branches cost no
// evictions, and publish's and serve's path figures do not hang on how
// a seed's code happens to thrash a small cache.
const (
	tightBudget = 8
	roomyBudget = 64
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// spec is one workload: its inputs and its main loop.
type spec struct {
	name    string
	sources func(seed int64) []source
	budget  int // XIP page budget of the load-and-run phase
	// serve and publish have a main loop of their own and give the
	// second half of the run to the load-and-run phase over their
	// artifacts; cold-start and hot-loop are that phase throughout.
	ownLoop bool
}

var specs = []*spec{
	{name: "publish", sources: publishSources, budget: roomyBudget, ownLoop: true},
	{name: "cold-start", sources: coldSources, budget: tightBudget},
	{name: "hot-loop", sources: hotSources, budget: roomyBudget},
	{name: "serve", sources: serveSources, budget: roomyBudget, ownLoop: true},
}

// mainTime is the share of a run's time d the main loop gets.
func (sp *spec) mainTime(d time.Duration) time.Duration {
	if sp.ownLoop {
		return d / 2
	}
	return d
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is one workload's state after set-up.
type env struct {
	spec  *spec
	progs []*program
	pool  *parallel.Pool
	paths *pathPhase

	published opStats  // publish main loop
	svc       *service // serve main loop
	served    reqStats
	busy      []float64 // sampled pool busy fractions (trace runs)
	cal       *calibration
}

func newEnv(sp *spec, seed int64, progs []*program, pool *parallel.Pool, cal *calibration, svcRec *telemetry.Recorder) (*env, error) {
	e := &env{spec: sp, progs: progs, pool: pool, cal: cal, paths: newPathPhase(progs, sp.budget, cal)}
	if sp.name == "serve" {
		svc, err := startService(progs, serveMix(seed, len(progs)), svcRec)
		if err != nil {
			return nil, err
		}
		e.svc = svc
	}
	return e, nil
}

func (e *env) close() error {
	if e.svc == nil {
		return nil
	}
	return e.svc.close()
}

// pass runs one unit of the main loop: a publish pass over the corpus,
// a serve pass over the request mix, or one load-and-run cycle.
func (e *env) pass(rec *telemetry.Recorder) {
	switch {
	case e.spec.name == "publish":
		e.publishPass(rec)
	case e.svc != nil:
		e.svc.pass(rec, &e.served, e.cal)
	default:
		e.paths.cycle(rec)
	}
}

// main is the loop the workload's ops_per_s and op_ms_* describe.
func (e *env) main() *opStats {
	switch {
	case e.spec.name == "publish":
		return &e.published
	case e.svc != nil:
		return &e.served.opStats
	default:
		return &e.paths.opStats
	}
}

// errArtifact marks a compressed artifact that differs from the bytes
// set-up produced for the same source.
var errArtifact = errors.New("artifact differs from set-up bytes")

// publishPass publishes every module of the corpus once, as tasks of
// the shared pool; the compressors inside each task use the same pool.
// An op's time is its task's wall time from start to end, the latency a
// producer sees, less the pass's share of stolen time; the pass's is
// its wall time less steal.
func (e *env) publishPass(rec *telemetry.Recorder) {
	if rec != nil {
		stop := sampleBusy(e.pool)
		defer func() { e.busy = append(e.busy, stop()) }()
	}
	n := len(e.progs)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var (
		wall  time.Duration
		share float64
	)
	s := e.cal.around(func() {
		pass := startWall()
		submitted := time.Now()
		_ = e.pool.ForEach("publish", n, func(i int) error { // ops report through errs
			sp := span(rec, "parallel.task", telemetry.Int("wait_us", time.Since(submitted).Microseconds()))
			defer sp.End()
			start := time.Now()
			errs[i] = publish(e.progs[i], e.pool, rec)
			durs[i] = time.Since(start)
			return nil
		})
		wall, share = pass.stop()
	})
	e.published.elapsed += scale(wall, s)
	for i := range durs {
		e.published.add(scale(durs[i], s*share), errs[i])
	}
}

// publish is one producer op: source to both artifacts, which must
// equal the bytes set-up produced.
func publish(p *program, pool *parallel.Pool, rec *telemetry.Recorder) error {
	sp := span(rec, "op.publish", telemetry.String("program", p.name))
	defer sp.End()
	mod, np, err := compileModule(p.source, rec)
	if err != nil {
		return err
	}
	wb, obj, err := compressBoth(p.name, mod, np, pool, rec)
	if err != nil {
		return err
	}
	if !bytes.Equal(wb, p.wire) || !bytes.Equal(obj.Bytes(), p.brisc) {
		return fmt.Errorf("%s: %w", p.name, errArtifact)
	}
	return nil
}

// sameSetup is the set-up half of the determinism guard: every repeat
// must yield identical artifacts, sizes, step counts and references.
func sameSetup(a, b []*program) error {
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("set-up of %s is not deterministic", a[i].name)
		}
	}
	return nil
}

// runResult is what one benchmark run reports.
type runResult struct {
	metrics map[string]float64
	p90n    int     // samples behind op_ms_p90 (end-to-end runs)
	calMS   float64 // median calibration kernel time (end-to-end runs)
	tally
}

// runEndToEnd sets up setupRepeats times, then runs the main loop and
// the load-and-run phase for d in total, untraced.
func runEndToEnd(sp *spec, seed int64, d time.Duration) (*runResult, error) {
	pool := parallel.New(runtime.GOMAXPROCS(0))
	var (
		setupS []float64
		progs  []*program
		cal    calibration
	)
	for r := 0; r < setupRepeats; r++ {
		var (
			ps   []*program
			err  error
			wall time.Duration
		)
		s := cal.around(func() {
			t := startWall()
			ps, err = buildAll(sp.sources(seed), pool, nil)
			wall, _ = t.stop()
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, scale(wall, s).Seconds())
		if progs != nil {
			if err := sameSetup(progs, ps); err != nil {
				return nil, err
			}
		}
		progs = ps
	}
	e, err := newEnv(sp, seed, progs, pool, &cal, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()

	mainD := sp.mainTime(d)
	for start := time.Now(); time.Since(start) < mainD; {
		e.pass(nil)
	}
	if sp.ownLoop {
		e.paths.runFor(d-mainD, nil)
	}

	main := e.main()
	res := &runResult{metrics: endToEnd(e, main, setupS), p90n: len(main.durs), calMS: ms(quantile(cal.samples, 0.5)), tally: main.tally}
	if sp.ownLoop {
		res.merge(e.paths.tally)
	}
	return res, nil
}

// endToEnd computes every end-to-end metric of a run.
func endToEnd(e *env, main *opStats, setupS []float64) map[string]float64 {
	var wireB, fixedB, briscB, varB int
	for _, p := range e.progs {
		wireB += len(p.wire)
		fixedB += p.nativeFixed
		briscB += p.briscCode
		varB += p.nativeVar
	}
	m := map[string]float64{
		"setup_s":          medianFloat(setupS),
		"ops_per_s":        main.opsPerS(),
		"op_ms_p50":        ms(quantile(main.durs, 0.5)),
		"op_ms_p90":        ms(quantile(main.durs, 0.9)),
		"wire_size_ratio":  float64(wireB) / float64(fixedB),
		"brisc_size_ratio": float64(briscB) / float64(varB),
		"xip_resident_kb":  e.paths.residentKB(),
	}
	for pa := path(0); pa < numPaths; pa++ {
		m[pathNames[pa]+".ms_p50"] = e.paths.msP50(pa)
		m[pathNames[pa]+".steps_per_s"] = e.paths.stepsPerS(pa)
	}
	return m
}
