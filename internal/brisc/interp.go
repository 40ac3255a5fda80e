package brisc

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Interp executes a BRISC object in place. Code is addressed only by
// byte offsets into the compressed stream: branch targets are block
// indices resolved through the object's block-offset table, and return
// addresses are byte offsets. Run dispatches over units decoded into
// flat vm.Instr arrays — the whole image, decoded by the first Run into
// a table this Interp owns and keeps across Resets, or (after
// EnableXIP) page by page out of a compressed page store under a
// resident-page budget, the working-set trade the paper's
// memory-bottleneck scenario and W cost model describe. No decoded
// code is shared with another Interp or the JIT, or kept on the
// Object. Every instruction executes through the embedded vm.CPU, the
// same definition vm.Machine runs; only control transfers are mapped
// onto BRISC code (jump). Code is entered only at unit offsets (block
// starts and the return points CALL pushes): an image that does not
// decode fails with ErrCorrupt before anything runs, and a PC off the
// unit grid traps with ErrCorrupt.
type Interp struct {
	vm.CPU
	Obj *Object
	PC  int32 // byte offset into Obj.Code

	Steps int64 // instructions executed; a faulting one is not counted
	Units int64 // units decoded

	// limits bounds every Run; install with SetLimits.
	limits guard.Limits

	// Trace, when non-nil, receives the byte offset of every unit.
	Trace func(off int32)

	// image is the whole image decoded by the first whole-image Run,
	// owned by this Interp, kept by Reset and dropped by EnableXIP, so
	// it is nil in paged mode. unitIdx is the index of the unit at PC in
	// the unit table being executed, or -1 when PC must be resolved by
	// offset (start of run, after a computed jump, and after every jump
	// in paged mode).
	image   *unitTable
	unitIdx int32

	// xip, when non-nil (EnableXIP), switches Run to demand-paged
	// execution out of the compressed page store with a bounded
	// decoded-page LRU cache.
	xip *xipRuntime

	// XIPFault, when non-nil, is invoked with the page id just before
	// each page fault loads from the store — an instrumentation/test
	// hook (mid-execution tamper injection), like Trace.
	XIPFault func(page int32)

	// Telemetry. The hot loop touches only local fields behind a single
	// opCounts nil check; recorder locks are taken in FlushTelemetry,
	// once per Run, so the disabled path costs nothing measurable.
	rec          *telemetry.Recorder
	opCounts     []int64
	blockCounts  map[int32]int64
	flushedSteps int64
	flushedUnits int64
}

// Interpreter runtime errors. Memory faults and division by zero are
// the vm sentinels, since vm.CPU executes every instruction.
var (
	ErrOutOfSteps = errors.New("brisc: step limit exceeded")
	ErrMemFault   = vm.ErrMemFault
	ErrDivByZero  = vm.ErrDivByZero
)

// NewInterp builds an interpreter with the given memory size
// (0 selects vm.DefaultMemSize), writing trap output to out. Call
// Release when done with it (see vm.Memory).
func NewInterp(o *Object, memSize int, out io.Writer) *Interp {
	if memSize <= 0 {
		memSize = vm.DefaultMemSize
	}
	it := &Interp{CPU: vm.CPU{Memory: vm.MakeMemory(memSize), Out: out}, Obj: o, unitIdx: -1}
	it.InitState(o.Globals) // the rest of Reset's state is already zero
	return it
}

// Reset reinitializes memory and registers and positions the pc at the
// first block (the linker's start stub).
func (it *Interp) Reset() {
	it.ResetState(it.Obj.Globals)
	it.PC = 0
	it.unitIdx = -1
	it.Steps = 0
	it.Units = 0
	if it.xip != nil {
		it.xip.reset()
	}
	it.flushedSteps, it.flushedUnits = 0, 0
	if it.opCounts != nil {
		for i := range it.opCounts {
			it.opCounts[i] = 0
		}
		it.blockCounts = make(map[int32]int64)
	}
}

// SetRecorder attaches a telemetry recorder. When rec is enabled the
// interpreter counts opcode dispatches and basic-block entries in local
// fields and publishes them, with the XIP page-cache counters in paged
// mode, at the end of each Run (or via FlushTelemetry). A nil or disabled recorder
// detaches and restores the zero-overhead path.
func (it *Interp) SetRecorder(rec *telemetry.Recorder) {
	if rec.Enabled() {
		it.rec = rec
		it.opCounts = make([]int64, vm.NumOpcodes)
		it.blockCounts = make(map[int32]int64)
	} else {
		it.rec = nil
		it.opCounts = nil
		it.blockCounts = nil
	}
}

// FlushTelemetry publishes the execution counters accumulated since
// the last flush to the attached recorder: total steps and units,
// per-opcode dispatch counts, block entries (total, plus a histogram
// of entries per distinct block), and in paged mode the page faults,
// hits, evictions, and residency. Run calls it on exit; call it
// directly only when sampling mid-run.
func (it *Interp) FlushTelemetry() {
	if it.rec == nil {
		return
	}
	it.rec.Add("brisc.interp.steps", it.Steps-it.flushedSteps)
	it.rec.Add("brisc.interp.units", it.Units-it.flushedUnits)
	it.flushedSteps, it.flushedUnits = it.Steps, it.Units
	var entries int64
	for _, n := range it.blockCounts {
		entries += n
		it.rec.Observe("brisc.interp.block_entries_per_block", float64(n))
	}
	it.rec.Add("brisc.interp.block_entries", entries)
	it.blockCounts = make(map[int32]int64)
	for op, n := range it.opCounts {
		if n != 0 {
			it.rec.Add("brisc.interp.dispatch."+vm.Opcode(op).Name(), n)
			it.opCounts[op] = 0
		}
	}
	if rt := it.xip; rt != nil {
		it.rec.Add("paging.xip.faults", rt.faults-rt.flushedFaults)
		it.rec.Add("paging.xip.hits", rt.hits-rt.flushedHits)
		it.rec.Add("paging.xip.evictions", rt.evictions-rt.flushedEvictions)
		rt.flushedFaults, rt.flushedHits, rt.flushedEvictions = rt.faults, rt.hits, rt.evictions
		it.rec.SetGauge("paging.xip.pages", float64(rt.img.NumPages()))
		it.rec.SetGauge("paging.xip.page_size", float64(rt.img.PageSize()))
		it.rec.SetGauge("paging.xip.resident_pages", float64(rt.nres))
		it.rec.SetGauge("paging.xip.resident_bytes", float64(rt.resident))
		it.rec.SetGauge("paging.xip.peak_resident_pages", float64(rt.peakPages))
		it.rec.SetGauge("paging.xip.peak_resident_bytes", float64(rt.peakBytes))
	}
}

// SetLimits installs resource limits honored by every subsequent Run.
// The memory limit is validated against the interpreter's memory
// immediately; a violation returns a *guard.TrapError.
func (it *Interp) SetLimits(l guard.Limits) error {
	g := guard.New("brisc", l, ErrOutOfSteps)
	if err := g.CheckMem(len(it.Mem)); err != nil {
		return err
	}
	it.limits = l
	return nil
}

// Run interprets until halt/exit, an error, or a resource limit
// (maxSteps, 0 = unlimited, merges with any SetLimits step bound),
// returning the exit code. A limit violation returns a
// *guard.TrapError, which still matches ErrOutOfSteps for the step
// limit. A data segment that does not fit in memory fails with
// vm.ErrMemFault, and an image that does not decode with ErrCorrupt,
// before anything executes.
func (it *Interp) Run(maxSteps int64) (int32, error) {
	defer it.FlushTelemetry()
	l := it.limits
	if maxSteps > 0 && (l.MaxSteps == 0 || maxSteps < l.MaxSteps) {
		l.MaxSteps = maxSteps
	}
	g := guard.New("brisc", l, ErrOutOfSteps)
	if err := it.DataErr(); err != nil {
		return 0, err
	}
	if it.xip == nil && it.image == nil {
		var err error
		if it.image, err = it.Obj.decodeImage(); err != nil {
			return 0, err
		}
	}
	it.unitIdx = -1
	if err := it.run(&g, !l.Zero()); err != nil {
		return 0, err
	}
	return it.ExitCode, nil
}

// run is the one dispatch loop, shared by whole-image and paged
// execution: no per-unit decode, no pattern expansion, vm.CPU.Exec
// over a unit table's flat instruction array. Fall-through follows
// nextIdx within the table; only a PC without a unit index goes
// through resolve, the one mode-dependent step. Governor and
// telemetry work are hoisted behind per-unit flag checks, so with both
// disabled a unit costs one index step plus its instructions.
func (it *Interp) run(g *guard.Gov, checked bool) error {
	tab := it.image
	instrumented := it.Trace != nil || it.opCounts != nil
	for !it.Halted {
		if checked {
			if err := g.Check(it.Steps, it.Depth, int64(it.PC)); err != nil {
				it.recordTrap(err)
				return err
			}
		}
		idx := it.unitIdx
		if idx < 0 {
			t, i, err := it.resolve(g)
			if err != nil {
				return err
			}
			tab, idx = t, i
			it.unitIdx = idx
		}
		u := &tab.units[idx]
		if instrumented {
			it.noteUnit(u)
		}
		it.Units++
		jumped := false
		end := u.first + u.n
		for k := u.first; k < end; k++ {
			ins := &tab.code[k]
			if it.opCounts != nil && int(ins.Op) < len(it.opCounts) {
				it.opCounts[ins.Op]++
			}
			target, jump, err := it.Exec(ins, u.next)
			if err != nil {
				return execErr(err)
			}
			if jump {
				if err := it.jump(ins.Op, target); err != nil {
					return err
				}
				it.Steps++
				jumped = true
				break
			}
			it.Steps++
			if it.Halted {
				jumped = true
				break
			}
		}
		if !jumped {
			it.PC = u.next
			it.unitIdx = u.nextIdx
		}
	}
	return nil
}

// resolve finds the unit table and unit index for PC: an offset lookup
// in the whole-image table, or a page lookup (faulting the page in) in
// paged mode. A PC that is not a unit offset — a computed jump to an
// address no CALL produced, or fall-through past the end of code — is
// the same offGrid trap in both modes.
func (it *Interp) resolve(g *guard.Gov) (*unitTable, int32, error) {
	if it.xip != nil {
		return it.xip.resolve(it, g, it.PC)
	}
	if it.PC < 0 || int(it.PC) >= len(it.image.idx) || it.image.idx[it.PC] < 0 {
		return nil, -1, offGrid(it.PC)
	}
	return it.image, it.image.idx[it.PC], nil
}

// offGrid is the trap for a PC that is not a unit offset.
func offGrid(pc int32) error {
	return fmt.Errorf("%w: jump to %d off the unit grid", ErrCorrupt, pc)
}

// noteUnit performs the per-unit instrumentation the dispatch loop
// hoists out of the uninstrumented path: trace callback and block-entry
// counts.
func (it *Interp) noteUnit(u *predUnit) {
	if u.isBlock && it.opCounts != nil {
		it.blockCounts[u.off]++
	}
	if it.Trace != nil {
		it.Trace(u.off)
	}
}

// recordTrap bumps the telemetry counter for a governor trap and
// trips the flight recorder (via guard.Report). The batched execution
// counters are flushed first so the flight dump shows what the run was
// doing when the limit fired.
func (it *Interp) recordTrap(err error) {
	it.FlushTelemetry()
	guard.Report(it.rec, err)
}

// execErr reports a vm.CPU fault. Illegal code in a BRISC image (an
// illegal opcode or unknown trap) is a corrupt image, so it also
// matches ErrCorrupt.
func execErr(err error) error {
	if errors.Is(err, vm.ErrIllegal) {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return err
}

// jump moves PC to a control transfer's target — the only BRISC
// semantics vm.CPU does not define. A branch, JMP or CALL target is a
// block index and resolves through the block table (and, whole-image,
// through the dense index straight to the unit at that offset). An RJR
// or EPI target is a byte offset that came from a register or memory,
// so it resolves by offset and traps offGrid when no unit starts there.
func (it *Interp) jump(op vm.Opcode, target int32) error {
	if op == vm.RJR || op == vm.EPI {
		it.PC = target
		it.unitIdx = -1
		return nil
	}
	if target < 0 || int(target) >= len(it.Obj.Blocks) {
		return fmt.Errorf("%w: block target %d", ErrCorrupt, target)
	}
	it.PC = it.Obj.Blocks[target]
	if it.image != nil {
		it.unitIdx = it.image.idx[it.PC]
	} else {
		it.unitIdx = -1 // paged: resolve the target by offset
	}
	return nil
}
