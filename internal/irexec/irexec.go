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
	"fmt"
	"io"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Runtime errors. Each also matches the vm sentinel of the same name
// under errors.Is, so callers can compare the engines' failures.
var (
	ErrOutOfSteps = integrity.Alias("irexec: step limit exceeded", vm.ErrOutOfSteps)
	ErrMemFault   = integrity.Alias("irexec: memory fault", vm.ErrMemFault)
	ErrDivByZero  = integrity.Alias("irexec: division by zero", vm.ErrDivByZero)
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
	globals  []int32 // data address, by index in Mod.Globals
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

// NewMachine validates the module, lays out its globals and prepares
// execution. memSize 0 selects vm.DefaultMemSize; a memory too small
// for the data segment is an error that matches vm.ErrMemFault.
func NewMachine(m *ir.Module, memSize int, out io.Writer) (*Machine, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("irexec: %w", err)
	}
	if memSize <= 0 {
		memSize = vm.DefaultMemSize
	}
	globals := make([]int32, len(m.Globals))
	addr := int64(DataBase)
	for i, g := range m.Globals {
		addr = (addr + 3) &^ 3
		globals[i] = int32(addr)
		addr += int64(g.Size)
	}
	if addr > int64(memSize) {
		return nil, fmt.Errorf("%w: data segment ends at %d, memory is %d bytes", ErrMemFault, addr, memSize)
	}
	mc := &Machine{Memory: vm.MakeMemory(memSize), Mod: m, Out: out, globals: globals}
	for i, g := range m.Globals {
		copy(mc.Mem[globals[i]:], g.Init)
	}
	mc.dataEnd = int32(addr)
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
	main := mc.Mod.Function("main")
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
	base    int32     // frame base: ADDRLP offsets index from here
	args    []int32   // incoming arguments (ADDRFP)
	nodes   []ir.Node // the function's trees
	pending []int32   // ARGI values for the next call
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

	labels := map[int32]int{}
	for k, r := range f.Roots {
		if t := f.Nodes[r]; t.Op == ir.LABELV {
			labels[t.Lit] = k
		}
	}
	fr := &frame{base: base, args: args, nodes: f.Nodes}
	pc := 0
	for pc < len(f.Roots) {
		// Statement dispatch counts as a step too: a LABELV/JUMPV-only
		// loop never reaches eval, and must still hit the governor.
		mc.Steps++
		if err := mc.gov.Check(mc.Steps, mc.depth, int64(pc)); err != nil {
			return 0, err
		}
		i := int(f.Roots[pc])
		t := f.Nodes[i]
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
			l, next, err := mc.eval(fr, i+1)
			if err != nil {
				return 0, err
			}
			r, _, err := mc.eval(fr, next)
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
			v, _, err := mc.eval(fr, i+1)
			return v, err
		case ir.RETV:
			return 0, nil
		case ir.ARGI:
			v, _, err := mc.eval(fr, i+1)
			if err != nil {
				return 0, err
			}
			fr.pending = append(fr.pending, v)
			pc++
		default:
			if _, _, err := mc.eval(fr, i); err != nil {
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

// eval evaluates the expression tree rooted at fr.nodes[i] to an
// int32 and returns the index just past the tree.
func (mc *Machine) eval(fr *frame, i int) (int32, int, error) {
	t := fr.nodes[i]
	if mc.opCounts != nil && int(t.Op) < len(mc.opCounts) {
		mc.opCounts[t.Op]++
	}
	mc.Steps++
	if err := mc.gov.Check(mc.Steps, mc.depth, int64(mc.depth)); err != nil {
		return 0, 0, err
	}
	switch t.Op {
	case ir.CNSTC, ir.CNSTS, ir.CNSTI:
		return int32(t.Lit), i + 1, nil
	case ir.ADDRLP, ir.ADDRLP8:
		return fr.base + int32(t.Lit), i + 1, nil
	case ir.ADDRFP, ir.ADDRFP8:
		k := int(t.Lit / 4)
		if k < 0 || k >= len(fr.args) {
			return 0, 0, fmt.Errorf("irexec: argument %d out of range", k)
		}
		// ADDRFP only appears under INDIRI in front-end output; the
		// special case lives in the INDIRI handler. A bare ADDRFP has
		// no meaningful address here.
		return 0, 0, fmt.Errorf("irexec: bare ADDRFP")
	case ir.ADDRGP:
		if g := mc.Mod.GlobalIndex(t.Lit); g >= 0 {
			return mc.globals[g], i + 1, nil
		}
		return 0, 0, fmt.Errorf("irexec: address of non-data symbol %q", mc.Mod.Syms[t.Lit])
	case ir.INDIRI:
		if a := fr.nodes[i+1]; a.Op == ir.ADDRFP || a.Op == ir.ADDRFP8 {
			k := int(a.Lit / 4)
			if k < 0 || k >= len(fr.args) {
				return 0, 0, fmt.Errorf("irexec: argument %d out of range", k)
			}
			return fr.args[k], i + 2, nil
		}
		a, next, err := mc.eval(fr, i+1)
		if err != nil {
			return 0, 0, err
		}
		v, err := mc.load32(a)
		return v, next, err
	case ir.INDIRC:
		a, next, err := mc.eval(fr, i+1)
		if err != nil {
			return 0, 0, err
		}
		if a < 0 || int(a) >= len(mc.Mem) {
			return 0, 0, fmt.Errorf("%w: load8 at %d", ErrMemFault, a)
		}
		return int32(int8(mc.Mem[a])), next, nil
	case ir.ASGNI, ir.ASGNC:
		a, next, err := mc.eval(fr, i+1)
		if err != nil {
			return 0, 0, err
		}
		v, next, err := mc.eval(fr, next)
		if err != nil {
			return 0, 0, err
		}
		if t.Op == ir.ASGNC {
			if a < 0 || int(a) >= len(mc.Mem) {
				return 0, 0, fmt.Errorf("%w: store8 at %d", ErrMemFault, a)
			}
			mc.Mem[a] = byte(v)
			return v, next, nil
		}
		return v, next, mc.store32(a, v)
	case ir.CVCI, ir.CVIC:
		v, next, err := mc.eval(fr, i+1)
		return int32(int8(v)), next, err
	case ir.NEGI:
		v, next, err := mc.eval(fr, i+1)
		return -v, next, err
	case ir.BCOMI:
		v, next, err := mc.eval(fr, i+1)
		return ^v, next, err
	case ir.CALLI, ir.CALLV:
		callee := fr.nodes[i+1]
		if callee.Op != ir.ADDRGP {
			return 0, 0, fmt.Errorf("irexec: indirect call")
		}
		args := fr.pending
		fr.pending = nil
		name := mc.Mod.Syms[callee.Lit]
		if v, handled, err := mc.trap(name, args); handled {
			return v, i + 2, err
		}
		f := mc.Mod.FuncIndex(callee.Lit)
		if f < 0 {
			return 0, 0, fmt.Errorf("irexec: call to undefined %q", name)
		}
		v, err := mc.call(mc.Mod.Functions[f], args)
		return v, i + 2, err
	default:
		return mc.binary(fr, i)
	}
}

func (mc *Machine) binary(fr *frame, i int) (int32, int, error) {
	op := fr.nodes[i].Op
	if op.Arity() != 2 {
		return 0, 0, fmt.Errorf("irexec: unsupported operator %s", op)
	}
	l, next, err := mc.eval(fr, i+1)
	if err != nil {
		return 0, 0, err
	}
	r, next, err := mc.eval(fr, next)
	if err != nil {
		return 0, 0, err
	}
	switch op {
	case ir.ADDI:
		return l + r, next, nil
	case ir.SUBI:
		return l - r, next, nil
	case ir.MULI:
		return l * r, next, nil
	case ir.DIVI:
		if r == 0 {
			return 0, 0, ErrDivByZero
		}
		return l / r, next, nil
	case ir.MODI:
		if r == 0 {
			return 0, 0, ErrDivByZero
		}
		return l % r, next, nil
	case ir.BANDI:
		return l & r, next, nil
	case ir.BORI:
		return l | r, next, nil
	case ir.BXORI:
		return l ^ r, next, nil
	case ir.LSHI:
		return l << (uint32(r) & 31), next, nil
	case ir.RSHI:
		return l >> (uint32(r) & 31), next, nil
	}
	return 0, 0, fmt.Errorf("irexec: unsupported operator %s", op)
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
