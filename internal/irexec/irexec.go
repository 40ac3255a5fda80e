// Package irexec interprets lcc-style tree IR (package ir) directly,
// without code generation. It provides reference semantics for the
// whole pipeline: the same MiniC program run through irexec and
// through codegen+vm must behave identically, which gives the test
// suite an independent implementation to differentially test the code
// generator, the BRISC interpreter, and the JIT against.
//
// The memory model mirrors the code generator's: globals from address
// 16 upward (4-aligned), a downward-growing stack, 32-bit little-
// endian words, and the same four runtime traps.
package irexec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Runtime errors.
var (
	ErrOutOfSteps = errors.New("irexec: step limit exceeded")
	ErrMemFault   = errors.New("irexec: memory fault")
	ErrDivByZero  = errors.New("irexec: division by zero")
)

// DataBase matches codegen.DataBase so absolute addresses agree.
const DataBase = 16

// Machine interprets an ir.Module. Its memory is a vm.Memory, with
// the same ownership rules: call Release when done.
type Machine struct {
	vm.Memory
	Mod *ir.Module
	Out io.Writer

	Steps    int64 // tree nodes evaluated
	ExitCode int32
	globals  map[string]int32
	funcs    map[string]*ir.Function
	sp       int32
	dataEnd  int32
	halted   bool

	// limits bounds every Run (install with SetLimits); gov is the
	// per-run governor and depth the live call-nesting count.
	limits guard.Limits
	gov    guard.Gov
	depth  int

	// Telemetry: per-operator evaluation counts, published at Run exit.
	rec          *telemetry.Recorder
	opCounts     []int64
	flushedSteps int64
}

// NewMachine lays out the module's globals and prepares execution.
// memSize 0 selects vm.DefaultMemSize.
func NewMachine(m *ir.Module, memSize int, out io.Writer) (*Machine, error) {
	if memSize <= 0 {
		memSize = vm.DefaultMemSize
	}
	mc := &Machine{
		Memory:  vm.MakeMemory(memSize),
		Mod:     m,
		Out:     out,
		globals: map[string]int32{},
		funcs:   map[string]*ir.Function{},
	}
	addr := int32(DataBase)
	for _, g := range m.Globals {
		addr = (addr + 3) &^ 3
		mc.globals[g.Name] = addr
		copy(mc.Mem[addr:], g.Init)
		addr += int32(g.Size)
	}
	for _, f := range m.Functions {
		mc.funcs[f.Name] = f
	}
	mc.dataEnd = addr
	mc.sp = int32(len(mc.Mem))
	return mc, nil
}

// SetRecorder attaches a telemetry recorder; when enabled, Run
// publishes evaluated tree-node totals and per-operator dispatch
// counts. A nil or disabled recorder detaches.
func (mc *Machine) SetRecorder(rec *telemetry.Recorder) {
	if rec.Enabled() {
		mc.rec = rec
		mc.opCounts = make([]int64, ir.NumOps)
	} else {
		mc.rec = nil
		mc.opCounts = nil
	}
}

// FlushTelemetry publishes counters accumulated since the last flush.
// Run calls it on exit.
func (mc *Machine) FlushTelemetry() {
	if mc.rec == nil {
		return
	}
	mc.rec.Add("irexec.steps", mc.Steps-mc.flushedSteps)
	mc.flushedSteps = mc.Steps
	for op, n := range mc.opCounts {
		if n != 0 {
			mc.rec.Add("irexec.dispatch."+ir.Op(op).String(), n)
			mc.opCounts[op] = 0
		}
	}
}

// SetLimits installs resource limits honored by every subsequent Run.
// The memory limit is validated against the machine's memory
// immediately; a violation returns a *guard.TrapError.
func (mc *Machine) SetLimits(l guard.Limits) error {
	g := guard.New("irexec", l, ErrOutOfSteps)
	if err := g.CheckMem(len(mc.Mem)); err != nil {
		return err
	}
	mc.limits = l
	return nil
}

// Run executes main with no arguments and returns its value as the
// exit code. maxSteps bounds evaluated tree nodes (0 = 500M, merged
// with any SetLimits step bound). A limit violation returns a
// *guard.TrapError, which still matches ErrOutOfSteps for the step
// limit.
func (mc *Machine) Run(maxSteps int64) (int32, error) {
	defer mc.FlushTelemetry()
	if maxSteps <= 0 {
		maxSteps = 500_000_000
	}
	l := mc.limits
	if l.MaxSteps == 0 || maxSteps < l.MaxSteps {
		l.MaxSteps = maxSteps
	}
	mc.gov = guard.New("irexec", l, ErrOutOfSteps)
	main := mc.funcs["main"]
	if main == nil {
		return 0, fmt.Errorf("irexec: no main function")
	}
	v, err := mc.call(main, nil)
	if err != nil {
		guard.Report(mc.rec, err)
		return 0, err
	}
	if mc.halted {
		return mc.ExitCode, nil
	}
	return v, nil
}

// frame is one activation record.
type frame struct {
	base int32   // frame base: ADDRLP offsets index from here
	args []int32 // incoming arguments (ADDRFP)
}

// call executes one function body.
func (mc *Machine) call(f *ir.Function, args []int32) (int32, error) {
	// Allocate the frame on the downward stack.
	size := int32((f.FrameSize + 7) &^ 7)
	mc.sp -= size
	if mc.sp < mc.dataEnd {
		return 0, fmt.Errorf("%w: stack overflow in %s", ErrMemFault, f.Name)
	}
	base := mc.sp
	mc.depth++
	defer func() { mc.sp += size; mc.depth-- }()

	labels := map[int64]int{}
	for i, t := range f.Trees {
		if t.Op == ir.LABELV {
			labels[t.Lit] = i
		}
	}
	fr := &frame{base: base, args: args}
	var pendingArgs []int32
	pc := 0
	for pc < len(f.Trees) {
		// Statement dispatch counts as a step too: a LABELV/JUMPV-only
		// loop never reaches eval, and must still hit the governor.
		mc.Steps++
		if err := mc.gov.Check(mc.Steps, mc.depth, int64(pc)); err != nil {
			return 0, err
		}
		t := f.Trees[pc]
		switch t.Op {
		case ir.LABELV:
			pc++
		case ir.JUMPV:
			to, ok := labels[t.Lit]
			if !ok {
				return 0, fmt.Errorf("irexec: %s: undefined label %d", f.Name, t.Lit)
			}
			pc = to
		case ir.EQI, ir.NEI, ir.LTI, ir.LEI, ir.GTI, ir.GEI:
			l, err := mc.eval(t.Kids[0], fr, &pendingArgs)
			if err != nil {
				return 0, err
			}
			r, err := mc.eval(t.Kids[1], fr, &pendingArgs)
			if err != nil {
				return 0, err
			}
			var taken bool
			switch t.Op {
			case ir.EQI:
				taken = l == r
			case ir.NEI:
				taken = l != r
			case ir.LTI:
				taken = l < r
			case ir.LEI:
				taken = l <= r
			case ir.GTI:
				taken = l > r
			default:
				taken = l >= r
			}
			if taken {
				to, ok := labels[t.Lit]
				if !ok {
					return 0, fmt.Errorf("irexec: %s: undefined label %d", f.Name, t.Lit)
				}
				pc = to
			} else {
				pc++
			}
		case ir.RETI:
			return mc.eval(t.Kids[0], fr, &pendingArgs)
		case ir.RETV:
			return 0, nil
		case ir.ARGI:
			v, err := mc.eval(t.Kids[0], fr, &pendingArgs)
			if err != nil {
				return 0, err
			}
			pendingArgs = append(pendingArgs, v)
			pc++
		default:
			if _, err := mc.eval(t, fr, &pendingArgs); err != nil {
				return 0, err
			}
			pc++
		}
		if mc.halted {
			return 0, nil
		}
	}
	return 0, nil
}

// eval evaluates an expression tree to an int32.
func (mc *Machine) eval(t *ir.Tree, fr *frame, pendingArgs *[]int32) (int32, error) {
	if mc.opCounts != nil && int(t.Op) < len(mc.opCounts) {
		mc.opCounts[t.Op]++
	}
	mc.Steps++
	if err := mc.gov.Check(mc.Steps, mc.depth, int64(mc.depth)); err != nil {
		return 0, err
	}
	switch t.Op {
	case ir.CNSTC, ir.CNSTS, ir.CNSTI:
		return int32(t.Lit), nil
	case ir.ADDRLP, ir.ADDRLP8:
		return fr.base + int32(t.Lit), nil
	case ir.ADDRFP, ir.ADDRFP8:
		k := int(t.Lit / 4)
		if k < 0 || k >= len(fr.args) {
			return 0, fmt.Errorf("irexec: argument %d out of range", k)
		}
		// ADDRFP only appears under INDIRI in front-end output; the
		// special case lives in the INDIRI handler. A bare ADDRFP has
		// no meaningful address here.
		return 0, fmt.Errorf("irexec: bare ADDRFP")
	case ir.ADDRGP:
		if a, ok := mc.globals[t.Name]; ok {
			return a, nil
		}
		return 0, fmt.Errorf("irexec: address of non-data symbol %q", t.Name)
	case ir.INDIRI:
		if t.Kids[0].Op == ir.ADDRFP || t.Kids[0].Op == ir.ADDRFP8 {
			k := int(t.Kids[0].Lit / 4)
			if k < 0 || k >= len(fr.args) {
				return 0, fmt.Errorf("irexec: argument %d out of range", k)
			}
			return fr.args[k], nil
		}
		a, err := mc.eval(t.Kids[0], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		return mc.load32(a)
	case ir.INDIRC:
		a, err := mc.eval(t.Kids[0], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		if a < 0 || int(a) >= len(mc.Mem) {
			return 0, fmt.Errorf("%w: load8 at %d", ErrMemFault, a)
		}
		return int32(int8(mc.Mem[a])), nil
	case ir.ASGNI, ir.ASGNC:
		a, err := mc.eval(t.Kids[0], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		v, err := mc.eval(t.Kids[1], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		if t.Op == ir.ASGNC {
			if a < 0 || int(a) >= len(mc.Mem) {
				return 0, fmt.Errorf("%w: store8 at %d", ErrMemFault, a)
			}
			mc.Mem[a] = byte(v)
			return v, nil
		}
		return v, mc.store32(a, v)
	case ir.CVCI:
		v, err := mc.eval(t.Kids[0], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		return int32(int8(v)), nil
	case ir.CVIC:
		v, err := mc.eval(t.Kids[0], fr, pendingArgs)
		if err != nil {
			return 0, err
		}
		return int32(int8(v)), nil
	case ir.NEGI:
		v, err := mc.eval(t.Kids[0], fr, pendingArgs)
		return -v, err
	case ir.BCOMI:
		v, err := mc.eval(t.Kids[0], fr, pendingArgs)
		return ^v, err
	case ir.CALLI, ir.CALLV:
		callee := t.Kids[0]
		if callee.Op != ir.ADDRGP {
			return 0, fmt.Errorf("irexec: indirect call")
		}
		args := *pendingArgs
		*pendingArgs = nil
		if v, handled, err := mc.trap(callee.Name, args); handled {
			return v, err
		}
		f := mc.funcs[callee.Name]
		if f == nil {
			return 0, fmt.Errorf("irexec: call to undefined %q", callee.Name)
		}
		return mc.call(f, args)
	default:
		return mc.binary(t, fr, pendingArgs)
	}
}

func (mc *Machine) binary(t *ir.Tree, fr *frame, pendingArgs *[]int32) (int32, error) {
	if len(t.Kids) != 2 {
		return 0, fmt.Errorf("irexec: unsupported operator %s", t.Op)
	}
	l, err := mc.eval(t.Kids[0], fr, pendingArgs)
	if err != nil {
		return 0, err
	}
	r, err := mc.eval(t.Kids[1], fr, pendingArgs)
	if err != nil {
		return 0, err
	}
	switch t.Op {
	case ir.ADDI:
		return l + r, nil
	case ir.SUBI:
		return l - r, nil
	case ir.MULI:
		return l * r, nil
	case ir.DIVI:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l / r, nil
	case ir.MODI:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l % r, nil
	case ir.BANDI:
		return l & r, nil
	case ir.BORI:
		return l | r, nil
	case ir.BXORI:
		return l ^ r, nil
	case ir.LSHI:
		return l << (uint32(r) & 31), nil
	case ir.RSHI:
		return l >> (uint32(r) & 31), nil
	}
	return 0, fmt.Errorf("irexec: unsupported operator %s", t.Op)
}

// trap handles the runtime builtins; handled is false for ordinary
// function names.
func (mc *Machine) trap(name string, args []int32) (int32, bool, error) {
	arg := func(i int) int32 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "putint":
		mc.print(fmt.Sprintf("%d\n", arg(0)))
		return 0, true, nil
	case "putchar":
		mc.print(string(rune(byte(arg(0)))))
		return 0, true, nil
	case "puts":
		a := arg(0)
		n := -1
		if a >= 0 && int(a) < len(mc.Mem) {
			n = bytes.IndexByte(mc.Mem[a:], 0)
		}
		if n < 0 {
			return 0, true, fmt.Errorf("%w: unterminated string at %d", ErrMemFault, a)
		}
		mc.print(string(mc.Mem[a:int(a)+n]) + "\n")
		return 0, true, nil
	case "exit":
		mc.halted = true
		mc.ExitCode = arg(0)
		return 0, true, nil
	}
	return 0, false, nil
}

func (mc *Machine) print(s string) {
	if mc.Out != nil {
		fmt.Fprint(mc.Out, s)
	}
}

func (mc *Machine) load32(a int32) (int32, error) {
	if a < 0 || int(a)+4 > len(mc.Mem) {
		return 0, fmt.Errorf("%w: load32 at %d", ErrMemFault, a)
	}
	return int32(binary.LittleEndian.Uint32(mc.Mem[a:])), nil
}

func (mc *Machine) store32(a, v int32) error {
	if a < 0 || int(a)+4 > len(mc.Mem) {
		return fmt.Errorf("%w: store32 at %d", ErrMemFault, a)
	}
	binary.LittleEndian.PutUint32(mc.Mem[a:], uint32(v))
	return nil
}
