package vm

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Runtime errors.
var (
	ErrOutOfSteps = errors.New("vm: step limit exceeded")
	ErrMemFault   = errors.New("vm: memory fault")
	ErrDivByZero  = errors.New("vm: division by zero")
	ErrBadPC      = errors.New("vm: pc out of range")
	// ErrIllegal reports an illegal opcode or unknown trap — loaded code
	// that is structurally invalid, so it also matches
	// integrity.ErrCorrupt.
	ErrIllegal = integrity.Alias("vm: illegal instruction", integrity.ErrCorrupt)
)

// DefaultMemSize is the default machine memory, sized like the paper's
// test machine scaled down (the benchmarks never need more).
const DefaultMemSize = 4 << 20

// Machine executes a linked Program: code is addressed by instruction
// index, and every instruction runs through the embedded CPU. Memory
// is little-endian; the data segment is copied in at Reset and the
// stack grows down from the top.
type Machine struct {
	CPU
	Prog *Program
	PC   int32

	Steps int64 // instructions executed; a faulting one is not counted

	// limits bounds every Run; install with SetLimits.
	limits guard.Limits

	// Trace, when non-nil, is invoked with the pc of every executed
	// instruction (used by the paging/working-set experiments).
	Trace func(pc int32)

	// Telemetry: dispatch counts accumulate in opCounts (hot loop pays
	// one nil check) and publish at the end of each Run.
	rec          *telemetry.Recorder
	opCounts     []int64
	flushedSteps int64
}

// NewMachine builds a machine with the given memory size (0 selects
// DefaultMemSize) writing trap output to out (nil discards it). Call
// Release when done with it (see Memory).
func NewMachine(p *Program, memSize int, out io.Writer) *Machine {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	m := &Machine{CPU: CPU{Memory: MakeMemory(memSize), Out: out}, Prog: p}
	m.InitState(p.Globals) // the rest of Reset's state is already zero
	return m
}

// Reset reinitializes memory, registers, and the pc to program entry
// (instruction 0, the linker's start stub).
func (m *Machine) Reset() {
	m.ResetState(m.Prog.Globals)
	m.PC = 0
	m.Steps = 0
	m.flushedSteps = 0
	clear(m.opCounts)
}

// SetRecorder attaches a telemetry recorder; when enabled, Run
// publishes total steps and per-opcode dispatch counts. A nil or
// disabled recorder detaches.
func (m *Machine) SetRecorder(rec *telemetry.Recorder) {
	if rec.Enabled() {
		m.rec = rec
		m.opCounts = make([]int64, NumOpcodes)
	} else {
		m.rec = nil
		m.opCounts = nil
	}
}

// FlushTelemetry publishes counters accumulated since the last flush.
// Run calls it on exit.
func (m *Machine) FlushTelemetry() {
	if m.rec == nil {
		return
	}
	m.rec.Add("vm.steps", m.Steps-m.flushedSteps)
	m.flushedSteps = m.Steps
	for op, n := range m.opCounts {
		if n != 0 {
			m.rec.Add("vm.dispatch."+Opcode(op).Name(), n)
			m.opCounts[op] = 0
		}
	}
}

// SetLimits installs resource limits honored by every subsequent Run.
// The memory limit is validated against the machine's memory
// immediately; a violation returns a *guard.TrapError.
func (m *Machine) SetLimits(l guard.Limits) error {
	g := guard.New("vm", l, ErrOutOfSteps)
	if err := g.CheckMem(len(m.Mem)); err != nil {
		return err
	}
	m.limits = l
	return nil
}

// Run executes until HALT, an exit trap, an error, or a resource limit
// (maxSteps, 0 = no limit, merges with any SetLimits step bound). A
// limit violation returns a *guard.TrapError, which still matches
// ErrOutOfSteps for the step limit. It returns the exit code.
func (m *Machine) Run(maxSteps int64) (int32, error) {
	defer m.FlushTelemetry()
	l := m.limits
	if maxSteps > 0 && (l.MaxSteps == 0 || maxSteps < l.MaxSteps) {
		l.MaxSteps = maxSteps
	}
	g := guard.New("vm", l, ErrOutOfSteps)
	if m.dataErr != nil {
		return 0, m.dataErr
	}
	code := m.Prog.Code
	for !m.Halted {
		if err := g.Check(m.Steps, m.Depth, int64(m.PC)); err != nil {
			m.recordTrap(err)
			return 0, err
		}
		if m.PC < 0 || int(m.PC) >= len(code) {
			return 0, fmt.Errorf("%w: %d", ErrBadPC, m.PC)
		}
		if m.Trace != nil {
			m.Trace(m.PC)
		}
		ins := &code[m.PC]
		if m.opCounts != nil && int(ins.Op) < len(m.opCounts) {
			m.opCounts[ins.Op]++
		}
		next := m.PC + 1
		target, jump, err := m.Exec(ins, next)
		if err != nil {
			return 0, fmt.Errorf("%w (pc %d)", err, m.PC)
		}
		m.Steps++
		if jump {
			next = target
		}
		m.PC = next
	}
	return m.ExitCode, nil
}

// recordTrap bumps the telemetry counter for a governor trap and
// trips the flight recorder (via guard.Report). The batched execution
// counters are flushed first so the flight dump shows what the run was
// doing when the limit fired.
func (m *Machine) recordTrap(err error) {
	m.FlushTelemetry()
	guard.Report(m.rec, err)
}
