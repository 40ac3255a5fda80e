// Package guard is the shared resource governor for the three
// execution engines (vm, irexec, brisc). A Limits value bounds steps,
// memory, call depth, and wall-clock time; engines consult a Gov once
// per step (or unit) and return a structured *TrapError — which limit
// fired, where, and after how many executed instructions — instead of
// hanging or running unbounded on hostile input.
//
// All TrapErrors match ErrLimit under errors.Is; a steps trap
// additionally unwraps to the engine's legacy ErrOutOfSteps sentinel so
// existing callers keep working.
package guard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// ErrLimit is the common sentinel every TrapError matches.
var ErrLimit = errors.New("guard: resource limit exceeded")

// Limit names, used in TrapError.Limit and telemetry counter keys.
const (
	LimitSteps    = "steps"
	LimitMem      = "mem"
	LimitDepth    = "call-depth"
	LimitDeadline = "deadline"
)

// Limits bounds one execution. The zero value imposes no limits.
type Limits struct {
	MaxSteps     int64     // executed instructions / evaluated nodes (0 = unlimited)
	MaxMem       int       // machine memory bytes (0 = unlimited)
	MaxCallDepth int       // nested activation records (0 = unlimited)
	Deadline     time.Time // wall-clock cutoff (zero = none)

	// Cancel, when non-nil, is polled alongside the deadline; once it is
	// closed the governor traps with LimitDeadline. FromContext installs
	// a context's Done channel here so a cancelled request (client gone,
	// server draining) stops the engine instead of leaving a goroutine
	// running to completion.
	Cancel <-chan struct{}
}

// WithTimeout returns l with Deadline set d from now (d <= 0 leaves it
// unchanged).
func (l Limits) WithTimeout(d time.Duration) Limits {
	if d > 0 {
		l.Deadline = time.Now().Add(d)
	}
	return l
}

// Zero reports whether no limit is set.
func (l Limits) Zero() bool {
	return l.MaxSteps == 0 && l.MaxMem == 0 && l.MaxCallDepth == 0 && l.Deadline.IsZero() && l.Cancel == nil
}

// FromContext folds a context's cancellation state into base, the
// deadline-propagation bridge the service layer uses: a client timeout
// becomes a LimitDeadline trap inside the engine rather than a hung
// goroutine. The context deadline and base.Deadline merge earliest-
// wins, and ctx.Done() is installed as Limits.Cancel so cancellation
// without a deadline (client disconnect, server drain) also traps. A
// context that is already cancelled yields a Deadline in the distant
// past, so the very first governor check traps before any work runs.
func FromContext(ctx context.Context, base Limits) Limits {
	if d, ok := ctx.Deadline(); ok && (base.Deadline.IsZero() || d.Before(base.Deadline)) {
		base.Deadline = d
	}
	if done := ctx.Done(); done != nil {
		base.Cancel = done
	}
	if ctx.Err() != nil {
		base.Deadline = time.Unix(0, 1)
	}
	return base
}

// TrapError reports a governor trap: which engine and limit, the
// program position, and how many instructions had executed.
type TrapError struct {
	Engine   string // "vm", "irexec", "brisc"
	Limit    string // LimitSteps, LimitMem, LimitDepth, LimitDeadline
	PC       int64  // pc / byte offset / recursion depth when the trap fired
	Steps    int64  // instructions executed when the trap fired
	Sentinel error  // legacy sentinel (e.g. vm.ErrOutOfSteps); may be nil
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("%s: %s limit exceeded at pc %d after %d steps", e.Engine, e.Limit, e.PC, e.Steps)
}

// Is makes every TrapError match ErrLimit.
func (e *TrapError) Is(target error) bool { return target == ErrLimit }

// Unwrap exposes the engine's legacy sentinel (nil for limits that had
// no pre-governor equivalent).
func (e *TrapError) Unwrap() error { return e.Sentinel }

// deadlinePollInterval is how many steps pass between wall-clock polls;
// time.Now is too expensive for the hot loop.
const deadlinePollInterval = 4096

// Gov is the per-run governor an engine consults from its dispatch
// loop. Build one with New at the top of Run; the zero value (no
// limits) never traps.
type Gov struct {
	Engine       string
	L            Limits
	StepSentinel error // wrapped into steps traps (legacy ErrOutOfSteps)
	nextPoll     int64
}

// New builds a governor for one run.
func New(engine string, l Limits, stepSentinel error) Gov {
	return Gov{Engine: engine, L: l, StepSentinel: stepSentinel}
}

// Check enforces the step, call-depth, and deadline limits at a step
// boundary. The deadline is polled every deadlinePollInterval steps.
func (g *Gov) Check(steps int64, depth int, pc int64) error {
	if g.L.MaxSteps > 0 && steps >= g.L.MaxSteps {
		return &TrapError{Engine: g.Engine, Limit: LimitSteps, PC: pc, Steps: steps, Sentinel: g.StepSentinel}
	}
	if g.L.MaxCallDepth > 0 && depth > g.L.MaxCallDepth {
		return &TrapError{Engine: g.Engine, Limit: LimitDepth, PC: pc, Steps: steps}
	}
	if (!g.L.Deadline.IsZero() || g.L.Cancel != nil) && steps >= g.nextPoll {
		g.nextPoll = steps + deadlinePollInterval
		if !g.L.Deadline.IsZero() && time.Now().After(g.L.Deadline) {
			return &TrapError{Engine: g.Engine, Limit: LimitDeadline, PC: pc, Steps: steps}
		}
		if g.L.Cancel != nil {
			select {
			case <-g.L.Cancel:
				return &TrapError{Engine: g.Engine, Limit: LimitDeadline, PC: pc, Steps: steps}
			default:
			}
		}
	}
	return nil
}

// Report records a governor trap on rec: it bumps the engine's
// <engine>.governor.<limit> counter and trips the flight recorder so
// the events leading up to the trap are dumped (first trip only). It
// returns the TrapError when err is one, nil otherwise; a nil or
// disabled recorder and non-trap errors are no-ops. Every engine's
// trap path funnels through here so the trap→flight-dump coupling
// lives in one place.
func Report(rec *telemetry.Recorder, err error) *TrapError {
	var trap *TrapError
	if !errors.As(err, &trap) {
		return nil
	}
	if rec.Enabled() {
		rec.Add(trap.Engine+".governor."+trap.Limit, 1)
		rec.Trip("guard: " + trap.Error())
	}
	return trap
}

// CheckMem validates a machine's memory size against the limit; it is
// called once at setup, not per step.
func (g *Gov) CheckMem(memBytes int) error {
	return g.CheckMemAt(memBytes, 0, 0)
}

// CheckMemAt enforces the memory limit mid-run, recording where the
// trap fired. Engines whose working set can grow after setup — the
// demand-paging executor decoding the segments a run enters — call
// this on each growth event so a run that would exceed MaxMem traps
// instead of silently ballooning.
func (g *Gov) CheckMemAt(memBytes int, pc, steps int64) error {
	if g.L.MaxMem > 0 && memBytes > g.L.MaxMem {
		return &TrapError{Engine: g.Engine, Limit: LimitMem, PC: pc, Steps: steps}
	}
	return nil
}
