package brisc

import (
	"encoding/binary"
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
// flat handler+operand form — the whole image once, up front, or (after
// EnableXIP) page by page out of a compressed page store under a
// resident-page budget, the working-set trade the paper's
// memory-bottleneck scenario and W cost model describe. StepUnit
// Markov-decodes and executes one unit straight from the stream; Run
// falls back to it for off-grid PCs and for images that do not decode.
type Interp struct {
	Obj  *Object
	Mem  []byte
	Regs [vm.NumRegs]int32
	PC   int32 // byte offset into Obj.Code
	Out  io.Writer

	Steps    int64 // instructions executed
	Units    int64 // units decoded
	ExitCode int32
	Halted   bool

	// Depth tracks nested activations (CALL increments, returns
	// decrement) for the governor's call-depth limit.
	Depth int

	// limits bounds every Run; install with SetLimits.
	limits guard.Limits

	blockSet map[int32]bool
	ctx      int
	// Trace, when non-nil, receives the byte offset of every unit.
	Trace func(off int32)

	// pre is the whole-image predecoded form (shared with the JIT front
	// end via the Object); unitIdx is the index of the unit at PC in the
	// unit table being executed, or -1 when PC must be resolved by
	// offset (start of run, after a computed jump, and after every
	// jump in paged mode). pre is nil in paged mode, and when
	// predecoding fails — corrupt images must still execute their
	// valid prefix, one unit at a time through the stepwise decoder.
	pre     *predecoded
	unitIdx int32

	// xip, when non-nil (EnableXIP), switches Run to demand-paged
	// execution out of the compressed page store with a bounded
	// decoded-page LRU cache.
	xip *xipRuntime

	// XIPFault, when non-nil, is invoked with the page id just before
	// each page fault loads from the store — an instrumentation/test
	// hook (mid-execution tamper injection), like Trace.
	XIPFault func(page int32)

	// step is StepUnit's reusable expansion buffer.
	step []vm.Instr

	// Telemetry. The hot loop touches only local fields behind a single
	// opCounts nil check; recorder locks are taken in FlushTelemetry,
	// once per Run, so the disabled path costs nothing measurable.
	rec          *telemetry.Recorder
	opCounts     []int64
	blockCounts  map[int32]int64
	flushedSteps int64
	flushedUnits int64
}

// Interpreter runtime errors.
var (
	ErrOutOfSteps = errors.New("brisc: step limit exceeded")
	ErrMemFault   = errors.New("brisc: memory fault")
	ErrDivByZero  = errors.New("brisc: division by zero")
)

// NewInterp builds an interpreter with the given memory size
// (0 selects vm.DefaultMemSize), writing trap output to out.
func NewInterp(o *Object, memSize int, out io.Writer) *Interp {
	if memSize <= 0 {
		memSize = vm.DefaultMemSize
	}
	it := &Interp{Obj: o, Mem: make([]byte, memSize), Out: out}
	it.blockSet = make(map[int32]bool, len(o.Blocks))
	for _, off := range o.Blocks {
		it.blockSet[off] = true
	}
	it.Reset()
	return it
}

// Reset reinitializes memory and registers and positions the pc at the
// first block (the linker's start stub).
func (it *Interp) Reset() {
	for i := range it.Mem {
		it.Mem[i] = 0
	}
	for _, g := range it.Obj.Globals {
		copy(it.Mem[g.Addr:], g.Init)
	}
	it.Regs = [vm.NumRegs]int32{}
	it.Regs[vm.RegSP] = int32(len(it.Mem))
	it.PC = 0
	it.ctx = 0
	it.unitIdx = -1
	it.Steps = 0
	it.Units = 0
	it.Halted = false
	it.ExitCode = 0
	it.Depth = 0
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
		it.rec.SetGauge("paging.xip.resident_pages", float64(len(rt.pages)))
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
// limit.
func (it *Interp) Run(maxSteps int64) (int32, error) {
	defer it.FlushTelemetry()
	l := it.limits
	if maxSteps > 0 && (l.MaxSteps == 0 || maxSteps < l.MaxSteps) {
		l.MaxSteps = maxSteps
	}
	g := guard.New("brisc", l, ErrOutOfSteps)
	// Paged runs must not chain jumps through a whole-image table left
	// by an earlier run (jumpBlock follows pre.blockUnit when set).
	it.pre = nil
	if it.xip == nil {
		it.pre, _ = it.Obj.predecode()
	}
	it.unitIdx = -1
	if err := it.run(&g, !l.Zero()); err != nil {
		return 0, err
	}
	return it.ExitCode, nil
}

// run is the one dispatch loop, shared by whole-image and paged
// execution: no per-unit decode, no pattern expansion, direct
// handler-table dispatch over a unit table's flat instruction array.
// Fall-through follows nextIdx within the table; only a PC without a
// unit index goes through resolve, the one mode-dependent step.
// Governor and telemetry work are hoisted behind per-unit flag checks,
// so with both disabled a unit costs one index step plus its handlers.
func (it *Interp) run(g *guard.Gov, checked bool) error {
	var tab *unitTable
	if it.pre != nil {
		tab = &it.pre.unitTable
	}
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
			if i < 0 {
				// Off-grid PC (a computed jump into the middle of a unit
				// on hostile input) or an image that does not predecode:
				// one unit through the stepwise decoder, preserving
				// in-place semantics exactly.
				if err := it.StepUnit(); err != nil {
					return err
				}
				continue
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
			taken, err := opHandlers[ins.Op](it, ins, u.next)
			if err != nil {
				return err
			}
			it.Steps++
			if taken || it.Halted {
				jumped = true
				break
			}
		}
		if !jumped {
			it.ctx = int(u.pid) + 1
			it.PC = u.next
			it.unitIdx = u.nextIdx
		}
	}
	return nil
}

// resolve finds the unit table and unit index for PC: an offset lookup
// in the whole-image table, or a page lookup (faulting the page in) in
// paged mode. A -1 index sends the unit to the stepwise decoder.
func (it *Interp) resolve(g *guard.Gov) (*unitTable, int32, error) {
	if it.xip != nil {
		return it.xip.resolve(it, g, it.PC)
	}
	if it.pre == nil {
		return nil, -1, nil
	}
	idx, ok := it.pre.offIdx[it.PC]
	if !ok {
		return nil, -1, nil
	}
	return &it.pre.unitTable, idx, nil
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

// StepUnit decodes and executes one unit (one or more instructions).
func (it *Interp) StepUnit() error {
	if it.blockSet[it.PC] {
		it.ctx = 0
		if it.opCounts != nil {
			it.blockCounts[it.PC]++
		}
	}
	if it.Trace != nil {
		it.Trace(it.PC)
	}
	pid, vals, next, err := it.Obj.decodeUnit(it.PC, it.ctx)
	if err != nil {
		return err
	}
	it.step, err = it.Obj.Dict[pid].expand(it.step[:0], vals)
	if err != nil {
		return err
	}
	it.Units++
	jumped := false
	for k := range it.step {
		ins := &it.step[k]
		if it.opCounts != nil && int(ins.Op) < len(it.opCounts) {
			it.opCounts[ins.Op]++
		}
		taken, err := opHandlers[ins.Op](it, ins, next)
		if err != nil {
			return err
		}
		it.Steps++
		if taken || it.Halted {
			jumped = true
			break
		}
	}
	if !jumped {
		it.ctx = pid + 1
		it.PC = next
	}
	return nil
}

// blockTarget resolves a block index to a byte offset.
func (it *Interp) blockTarget(b int32) (int32, error) {
	if b < 0 || int(b) >= len(it.Obj.Blocks) {
		return 0, fmt.Errorf("%w: block target %d", ErrCorrupt, b)
	}
	return it.Obj.Blocks[b], nil
}

func (it *Interp) jumpBlock(b int32) (bool, error) {
	off, err := it.blockTarget(b)
	if err != nil {
		return false, err
	}
	it.PC = off
	it.ctx = 0
	if it.pre != nil {
		it.unitIdx = it.pre.blockUnit[b]
	} else {
		it.unitIdx = -1 // paged or stepwise: resolve the target by offset
	}
	return true, nil
}

func (it *Interp) load32(addr int32) (int32, error) {
	if addr < 0 || int(addr)+4 > len(it.Mem) {
		return 0, fmt.Errorf("%w: load32 at %d", ErrMemFault, addr)
	}
	return int32(binary.LittleEndian.Uint32(it.Mem[addr:])), nil
}

func (it *Interp) store32(addr, v int32) error {
	if addr < 0 || int(addr)+4 > len(it.Mem) {
		return fmt.Errorf("%w: store32 at %d", ErrMemFault, addr)
	}
	binary.LittleEndian.PutUint32(it.Mem[addr:], uint32(v))
	return nil
}

func (it *Interp) trap(id int32) error {
	arg := it.Regs[vm.RegArg0]
	switch id {
	case vm.TrapPutint:
		it.print(fmt.Sprintf("%d\n", arg))
	case vm.TrapPutchar:
		it.print(string(rune(byte(arg))))
	case vm.TrapPuts:
		end := arg
		for int(end) < len(it.Mem) && it.Mem[end] != 0 {
			end++
		}
		if int(end) >= len(it.Mem) {
			return fmt.Errorf("%w: unterminated string at %d", ErrMemFault, arg)
		}
		it.print(string(it.Mem[arg:end]) + "\n")
	case vm.TrapExit:
		it.Halted = true
		it.ExitCode = arg
	default:
		return fmt.Errorf("%w: unknown trap %d", ErrCorrupt, id)
	}
	it.Regs[vm.RegArg0] = 0
	return nil
}

func (it *Interp) print(s string) {
	if it.Out != nil {
		fmt.Fprint(it.Out, s)
	}
}
