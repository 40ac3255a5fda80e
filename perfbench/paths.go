package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/brisc"
	"repro/internal/codegen"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
)

// path is one way a client takes shipped bytes to an exit code.
type path int

const (
	pathWire  path = iota // wire.Decompress → codegen.Generate → VM
	pathBrisc             // brisc.Parse → NewInterp → Run
	pathXIP               // brisc.Parse → OpenXIPStore → EnableXIP → Run
	pathJIT               // brisc.Parse → brisc.JIT → VM
	numPaths
)

var pathNames = [numPaths]string{"wire", "brisc", "xip", "jit"}

// outcome is what one load-and-run op observed besides its output. It
// is a pure function of the program, path and page budget, so every op
// on the same triple must observe the same outcome.
type outcome struct {
	steps int64
	xip   brisc.XIPStats
}

// span opens a span around a call into a layer. A nil recorder, used
// for the end-to-end runs, records nothing.
func span(rec *telemetry.Recorder, name string, attrs ...telemetry.Attr) *telemetry.Span {
	return rec.StartSpan("bench."+name, attrs...)
}

// runPath takes p's shipped bytes to an exit code through pa and checks
// exit code and output against the reference. Nothing decoded is reused
// across calls: every op parses, opens and predecodes afresh.
func runPath(p *program, pa path, budget int, rec *telemetry.Recorder) (outcome, error) {
	var (
		out  bytes.Buffer
		oc   outcome
		code int32
		err  error
	)
	limit := 8*p.steps + 1_000_000
	switch pa {
	case pathWire:
		sp := span(rec, "wire.decompress", telemetry.Int("bytes_in", int64(len(p.wire))))
		mod, derr := wire.DecompressTraced(p.wire, rec)
		sp.End()
		if derr != nil {
			return oc, fmt.Errorf("wire decompress: %w", derr)
		}
		sp = span(rec, "codegen.generate")
		np, gerr := codegen.Generate(mod, codegen.Options{})
		sp.End()
		if gerr != nil {
			return oc, fmt.Errorf("codegen: %w", gerr)
		}
		code, oc.steps, err = runVM(np, &out, limit, rec)
	case pathBrisc, pathXIP:
		obj, perr := parse(p.brisc, rec)
		if perr != nil {
			return oc, perr
		}
		var img *brisc.XIPImage
		if pa == pathXIP {
			sp := span(rec, "xip.open")
			img, err = brisc.OpenXIPStore(obj, p.xip, brisc.XIPOptions{})
			sp.End()
			if err != nil {
				return oc, fmt.Errorf("open xip store: %w", err)
			}
		}
		sp := span(rec, "brisc.new_interp")
		it := brisc.NewInterp(obj, 0, &out)
		sp.End()
		run := "brisc.run"
		if img != nil {
			run = "xip.run"
			if err := it.EnableXIP(img, budget, 0); err != nil {
				return oc, fmt.Errorf("enable xip: %w", err)
			}
		}
		sp = span(rec, run)
		code, err = it.Run(limit)
		sp.SetAttr(telemetry.Int("steps", it.Steps))
		sp.End()
		oc.steps, oc.xip = it.Steps, it.XIPStats()
	case pathJIT:
		obj, perr := parse(p.brisc, rec)
		if perr != nil {
			return oc, perr
		}
		sp := span(rec, "jit.translate", telemetry.Int("code_bytes", int64(len(obj.Code))))
		np, jerr := brisc.JIT(obj)
		sp.End()
		if jerr != nil {
			return oc, fmt.Errorf("jit: %w", jerr)
		}
		code, oc.steps, err = runVM(np, &out, limit, rec)
	}
	if err != nil {
		return oc, fmt.Errorf("run: %w", err)
	}
	return oc, check(p.want, code, out.String())
}

func parse(data []byte, rec *telemetry.Recorder) (*brisc.Object, error) {
	sp := span(rec, "brisc.parse", telemetry.Int("bytes_in", int64(len(data))))
	defer sp.End()
	obj, err := brisc.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("brisc parse: %w", err)
	}
	return obj, nil
}

func runVM(np *vm.Program, out *bytes.Buffer, limit int64, rec *telemetry.Recorder) (int32, int64, error) {
	sp := span(rec, "vm.new_machine")
	m := vm.NewMachine(np, 0, out)
	sp.End()
	sp = span(rec, "vm.run")
	code, err := m.Run(limit)
	sp.SetAttr(telemetry.Int("steps", m.Steps))
	sp.End()
	return code, m.Steps, err
}

// errMismatch marks an op whose exit code or output differs from the
// reference.
var errMismatch = errors.New("output differs from reference")

func check(w want, exit int32, out string) error {
	if exit != w.exit || out != w.out {
		return fmt.Errorf("%w: exit %d, %d output bytes; want exit %d, %d bytes", errMismatch, exit, len(out), w.exit, len(w.out))
	}
	return nil
}

// opKey names one (program, path) pair of a phase.
type opKey struct {
	prog int
	path path
}

// pathPhase accumulates the load-and-run ops of one phase.
type pathPhase struct {
	progs  []*program
	budget int          // XIP page budget
	cal    *calibration // brackets every op

	opStats
	byKey map[opKey][]time.Duration
	first map[opKey]outcome
}

func newPathPhase(progs []*program, budget int, cal *calibration) *pathPhase {
	return &pathPhase{progs: progs, budget: budget, cal: cal, byKey: map[opKey][]time.Duration{}, first: map[opKey]outcome{}}
}

// op runs one load-and-run op and files its time and outcome. An op
// whose outcome differs from the first op on the same pair fails: the
// determinism guard.
func (ph *pathPhase) op(i int, pa path, rec *telemetry.Recorder) {
	p := ph.progs[i]
	sp := span(rec, "op."+pathNames[pa], telemetry.String("program", p.name))
	var (
		oc  outcome
		err error
	)
	// Start every op on a collected heap. Left to the pacer, a
	// collection lands on whichever op is running when the heap reaches
	// its goal, which depends on the order and sizes of the ops before
	// it; this way an op is charged for the collections its own
	// allocation triggers, the same ones on every run.
	runtime.GC()
	d := ph.cal.bracket(func() time.Duration {
		t := startCPU()
		oc, err = runPath(p, pa, ph.budget, rec)
		return t.stop()
	})
	sp.End()
	ph.elapsed += d
	k := opKey{i, pa}
	if err == nil {
		if prev, ok := ph.first[k]; !ok {
			ph.first[k] = oc
		} else if prev != oc {
			err = fmt.Errorf("nondeterministic outcome %+v, first op saw %+v", oc, prev)
		}
	}
	if err != nil {
		err = fmt.Errorf("%s via %s: %w", p.name, pathNames[pa], err)
	}
	ph.add(d, err)
	ph.byKey[k] = append(ph.byKey[k], d)
}

// cycle runs every program through every path once.
func (ph *pathPhase) cycle(rec *telemetry.Recorder) {
	for i := range ph.progs {
		for pa := path(0); pa < numPaths; pa++ {
			ph.op(i, pa, rec)
		}
	}
}

// runFor runs whole cycles until d of wall time has passed (at least one).
func (ph *pathPhase) runFor(d time.Duration, rec *telemetry.Recorder) {
	for start := time.Now(); ; {
		ph.cycle(rec)
		if time.Since(start) >= d {
			return
		}
	}
}

// msP50 is the typical op time of one path: each program's median op
// time on it, combined over the programs by geometric mean, so programs
// of very different lengths weigh alike and no program's share of the
// ops moves the figure.
func (ph *pathPhase) msP50(pa path) float64 {
	var logs float64
	for i := range ph.progs {
		logs += math.Log(ms(quantile(ph.byKey[opKey{i, pa}], 0.5)))
	}
	return math.Exp(logs / float64(len(ph.progs)))
}

// stepsPerS scores a path on native VM steps: every program's native
// step count over the sum of its median op times on that path, so the
// figure does not depend on where the phase's time ran out.
func (ph *pathPhase) stepsPerS(pa path) float64 {
	var steps int64
	var secs float64
	for i, p := range ph.progs {
		steps += p.steps
		secs += quantile(ph.byKey[opKey{i, pa}], 0.5).Seconds()
	}
	return float64(steps) / secs
}

// outcomes lists the first outcome of every program on one path.
func (ph *pathPhase) outcomes(pa path) []outcome {
	var out []outcome
	for i := range ph.progs {
		if oc, ok := ph.first[opKey{i, pa}]; ok {
			out = append(out, oc)
		}
	}
	return out
}

// residentKB is the peak decoded XIP residency of one run of a
// program, the geometric mean over the phase's programs.
func (ph *pathPhase) residentKB() float64 {
	var logs float64
	ocs := ph.outcomes(pathXIP)
	for _, oc := range ocs {
		logs += math.Log(float64(oc.xip.PeakResidentBytes) / 1024)
	}
	return math.Exp(logs / float64(len(ocs)))
}
