// Package codegen translates lcc-style tree IR (package ir) into linked
// OmniVM programs (package vm).
//
// The translator performs Sethi–Ullman expression evaluation over a
// scratch register pool with spilling, places locals/temps/outgoing
// arguments in a downward-growing frame, and passes the first four
// arguments in registers (r0..r3) with the remainder on the stack —
// matching the paper's examples, where arguments are marshalled with
// mov.i into n0/n1 before a call.
//
// Options reproduce the paper's "Reducing RISC abstract machines"
// study: NoImmediates removes every immediate instruction except the
// load-immediate primitive, and NoRegDisp removes register-displacement
// addressing, leaving load- and store-indirect.
package codegen

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Options selects an abstract-machine variant (paper §5).
type Options struct {
	// NoImmediates removes ADDI and the compare-immediate branches;
	// immediates are materialized with LDI.
	NoImmediates bool
	// NoRegDisp forces loads and stores to use zero displacement;
	// effective addresses are computed into registers first.
	NoRegDisp bool
}

// DataBase is the address of the first global; address 0 stays unmapped
// so null-pointer loads fault.
const DataBase = 16

// Generate compiles a validated IR module into a linked VM program.
func Generate(m *ir.Module, opt Options) (*vm.Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	// Size the tables from counts the module already has. The code
	// estimate covers the generated code's usual instructions per tree
	// plus each function's prologue and epilogue; an under-estimate
	// (the de-tuned variants) just grows the slice once.
	g := &gen{
		opt: opt,
		mod: m,
		prog: &vm.Program{
			Name:    m.Name,
			Code:    make([]vm.Instr, 0, 4*m.NumTrees()+8*len(m.Functions)+3),
			Funcs:   make([]vm.FuncInfo, 0, len(m.Functions)),
			Globals: make([]vm.GlobalData, 0, len(m.Globals)),
		},
		globalAddr: make([]int32, len(m.Globals)),
		tables:     funcTables{labels: map[int64]int{}},
	}
	// Lay out the data segment.
	addr := int32(DataBase)
	for i, gl := range m.Globals {
		align := int32(4)
		addr = (addr + align - 1) &^ (align - 1)
		g.prog.Globals = append(g.prog.Globals, vm.GlobalData{
			Name: gl.Name, Addr: addr, Size: gl.Size, Init: gl.Init,
		})
		g.globalAddr[i] = addr
		addr += int32(gl.Size)
	}
	g.prog.DataSize = int(addr)

	// Start stub: call main (placed below), exit with its return value.
	g.emit(vm.Instr{Op: vm.CALL})
	g.emit(vm.Instr{Op: vm.TRAP, Imm: vm.TrapExit})
	g.emit(vm.Instr{Op: vm.HALT})

	for _, f := range m.Functions {
		if err := g.genFunc(f); err != nil {
			return nil, err
		}
	}

	// Resolve calls: g.prog.Funcs[i] is m.Functions[i].
	for _, fx := range g.callFix {
		g.prog.Code[fx.at].Target = int32(g.prog.Funcs[fx.fn].Entry)
	}
	main := g.prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("codegen: module has no main function")
	}
	g.prog.Code[0].Target = int32(main.Entry)
	g.prog.ComputeBlockStarts()
	return g.prog, nil
}

// fixup is a CALL at code index at to the function m.Functions[fn].
type fixup struct{ at, fn int }

type gen struct {
	opt        Options
	mod        *ir.Module
	prog       *vm.Program
	globalAddr []int32 // by index in m.Globals
	callFix    []fixup
	tables     funcTables
}

// global returns the data address of symbol s, if it names a global.
func (g *gen) global(s int32) (int32, bool) {
	i := g.mod.GlobalIndex(s)
	if i < 0 {
		return 0, false
	}
	return g.globalAddr[i], true
}

func (g *gen) emit(ins vm.Instr) int {
	g.prog.Code = append(g.prog.Code, ins)
	return len(g.prog.Code) - 1
}

// Per-function state.

// patchKind says how to rewrite a provisional frame-relative immediate
// once the final frame size is known.
type patchKind uint8

const (
	pkLocal patchKind = iota // imm += outSize (IR local offsets)
	pkSpill                  // imm = outSize + frameSize + imm (spill slots)
	pkTotal                  // imm = total (ENTER/EXIT/EPI)
	pkRA                     // imm = total - 4 (ra save slot)
	pkInArg                  // imm = total + imm (incoming stack args)
)

type patch struct {
	at   int
	kind patchKind
}

// branchFixup is a branch or jump at code index at whose target is the
// IR label, resolved once the function's labels are all placed.
type branchFixup struct {
	at    int
	label int64
}

// funcTables are the per-function and per-tree tables. genFunc empties
// them for each function and measure for each tree, so a module
// allocates them once.
type funcTables struct {
	labels    map[int64]int // IR label -> code index
	branchFix []branchFixup
	patches   []patch
	free      []uint8 // scratch register free list

	// The tree being compiled and, by node, its subtrees; stack is
	// measure's scratch.
	nodes []ir.Node
	sub   []subtree
	stack []int32
}

// subtree describes the subtree rooted at a node: the index just past
// it, and its Sethi–Ullman register need.
type subtree struct{ end, need int32 }

type fgen struct {
	g *gen
	*funcTables
	f        *ir.Function
	entry    int
	outSize  int // outgoing-argument area bytes
	spills   int // spill slots used
	pendArgs int // ARGI count since last call
}

// Scratch registers available to expression evaluation. r0..r3 carry
// arguments, r12 is reserved, r13 is the zero/global-pointer register,
// r14/r15 are sp/ra.
var scratchRegs = []uint8{4, 5, 6, 7, 8, 9, 10, 11}

// RegGP is the conventionally-zero register used as the base for
// absolute (global) addressing; the machine clears registers at reset
// and generated code never writes it.
const RegGP = 13

func (g *gen) genFunc(f *ir.Function) error {
	tab := &g.tables
	clear(tab.labels)
	tab.branchFix, tab.patches = tab.branchFix[:0], tab.patches[:0]
	tab.free = append(tab.free[:0], scratchRegs...)
	fg := &fgen{g: g, funcTables: tab, f: f, entry: len(g.prog.Code)}
	// Prologue: allocate frame, save ra.
	fg.patch(g.emit(vm.Instr{Op: vm.ENTER, Imm: 0}), pkTotal)
	fg.memOp(vm.STW, vm.RegRA, vm.RegSP, 0, pkRA, true)

	for k := range f.Roots {
		fg.measure(f.Tree(k))
		if err := fg.stmt(0); err != nil {
			return fmt.Errorf("codegen: %s: %w", f.Name, err)
		}
		if len(fg.free) != len(scratchRegs) {
			return fmt.Errorf("codegen: %s: register leak after %s", f.Name, g.mod.TreeString(f, k))
		}
	}
	// Safety net: IR guarantees a trailing return, but synthesize an
	// epilogue anyway for robustness.
	last := g.prog.Code[len(g.prog.Code)-1]
	if last.Op != vm.RJR {
		fg.epilogue()
	}

	// Resolve local branch targets.
	for _, bf := range fg.branchFix {
		pos, ok := fg.labels[bf.label]
		if !ok {
			return fmt.Errorf("codegen: %s: undefined label %d", f.Name, bf.label)
		}
		g.prog.Code[bf.at].Target = int32(pos)
	}

	// Finalize frame: [outgoing args][locals][spills][ra]; 4-aligned.
	out := (fg.outSize + 3) &^ 3
	locals := (f.FrameSize + 3) &^ 3
	total := out + locals + fg.spills*4 + 4
	for _, p := range fg.patches {
		ins := &g.prog.Code[p.at]
		switch p.kind {
		case pkLocal:
			ins.Imm += int32(out)
		case pkSpill:
			ins.Imm = int32(out + locals + int(ins.Imm)*4)
		case pkTotal:
			ins.Imm = int32(total)
		case pkRA:
			ins.Imm = int32(total - 4)
		case pkInArg:
			ins.Imm += int32(total)
		}
	}
	// The NoRegDisp variant must not leave displacements on loads and
	// stores; rewriting frame references happens before this check, so
	// verify the invariant held.
	if g.opt.NoRegDisp {
		for i := fg.entry; i < len(g.prog.Code); i++ {
			ins := g.prog.Code[i]
			switch ins.Op {
			case vm.LDW, vm.LDB, vm.STW, vm.STB:
				if ins.Imm != 0 {
					return fmt.Errorf("codegen: %s: displacement survived NoRegDisp at %d", f.Name, i)
				}
			}
		}
	}
	g.prog.Funcs = append(g.prog.Funcs, vm.FuncInfo{
		Name: f.Name, Entry: fg.entry, End: len(g.prog.Code), Frame: total,
	})
	return nil
}

func (fg *fgen) patch(at int, kind patchKind) {
	fg.patches = append(fg.patches, patch{at: at, kind: kind})
}

func (fg *fgen) emit(ins vm.Instr) int { return fg.g.emit(ins) }

func (fg *fgen) alloc() (uint8, error) {
	if len(fg.free) == 0 {
		return 0, fmt.Errorf("out of scratch registers")
	}
	r := fg.free[len(fg.free)-1]
	fg.free = fg.free[:len(fg.free)-1]
	return r, nil
}

func (fg *fgen) release(r uint8) { fg.free = append(fg.free, r) }

// spillSlot reserves one 4-byte spill slot and returns its index.
func (fg *fgen) spillSlot() int {
	s := fg.spills
	fg.spills++
	return s
}

// loadImm materializes an immediate in a register honoring the variant.
func (fg *fgen) loadImm(rd uint8, v int32) {
	fg.emit(vm.Instr{Op: vm.LDI, Rd: rd, Imm: v})
}

// addImm emits rd <- rs + imm, respecting NoImmediates. clobber is a
// guaranteed-free register for materialization (RegTmp by default).
func (fg *fgen) addImm(rd, rs uint8, imm int32, kind patchKind, hasPatch bool) {
	if !fg.g.opt.NoImmediates {
		at := fg.emit(vm.Instr{Op: vm.ADDI, Rd: rd, Rs1: rs, Imm: imm})
		if hasPatch {
			fg.patch(at, kind)
		}
		return
	}
	at := fg.emit(vm.Instr{Op: vm.LDI, Rd: vm.RegTmp, Imm: imm})
	if hasPatch {
		fg.patch(at, kind)
	}
	fg.emit(vm.Instr{Op: vm.ADD, Rd: rd, Rs1: rs, Rs2: vm.RegTmp})
}

// memOp emits a load or store with displacement, lowering to an address
// computation when the variant forbids displacements. For loads, data
// is Rd; for stores, data is Rs2.
func (fg *fgen) memOp(op vm.Opcode, data, base uint8, imm int32, kind patchKind, hasPatch bool) {
	if !fg.g.opt.NoRegDisp {
		ins := vm.Instr{Op: op, Rs1: base, Imm: imm}
		switch op {
		case vm.LDW, vm.LDB:
			ins.Rd = data
		default:
			ins.Rs2 = data
		}
		at := fg.emit(ins)
		if hasPatch {
			fg.patch(at, kind)
		}
		return
	}
	// Compute base+imm into RegTmp, then zero-displacement access.
	if imm == 0 && !hasPatch {
		ins := vm.Instr{Op: op, Rs1: base}
		switch op {
		case vm.LDW, vm.LDB:
			ins.Rd = data
		default:
			ins.Rs2 = data
		}
		fg.emit(ins)
		return
	}
	fg.addImm(vm.RegTmp, base, imm, kind, hasPatch)
	ins := vm.Instr{Op: op, Rs1: vm.RegTmp}
	switch op {
	case vm.LDW, vm.LDB:
		ins.Rd = data
	default:
		ins.Rs2 = data
	}
	fg.emit(ins)
}

func (fg *fgen) epilogue() {
	fg.memOp(vm.LDW, vm.RegRA, vm.RegSP, 0, pkRA, true)
	fg.patch(fg.emit(vm.Instr{Op: vm.EXIT, Imm: 0}), pkTotal)
	fg.emit(vm.Instr{Op: vm.RJR, Rs1: vm.RegRA})
}

// branchOpFor maps an IR compare-branch operator to the VM opcode.
var branchOpFor = [ir.NumOps]vm.Opcode{
	ir.EQI: vm.BEQ, ir.NEI: vm.BNE, ir.LTI: vm.BLT,
	ir.LEI: vm.BLE, ir.GTI: vm.BGT, ir.GEI: vm.BGE,
}

// immBranchFor maps register-register branch opcodes to their
// compare-immediate forms.
var immBranchFor = [vm.NumOpcodes]vm.Opcode{
	vm.BEQ: vm.BEQI, vm.BNE: vm.BNEI, vm.BLT: vm.BLTI,
	vm.BLE: vm.BLEI, vm.BGT: vm.BGTI, vm.BGE: vm.BGEI,
}

// measure makes nodes, a tree of a function that passed Validate, the
// tree being compiled, and describes each of its subtrees in one pass
// from its last node back to its root: a node's kids are described
// before it, with the first kid's root on top of the stack.
func (fg *fgen) measure(nodes []ir.Node) {
	n := len(nodes)
	if cap(fg.sub) < n {
		fg.sub, fg.stack = make([]subtree, n), make([]int32, n)
	}
	fg.nodes = nodes
	sub, stack, top := fg.sub[:n], fg.stack[:n], 0
	for i := n - 1; i >= 0; i-- {
		s := subtree{int32(i + 1), 1}
		switch nodes[i].Op.Arity() {
		case 1:
			top--
			s = sub[stack[top]]
		case 2:
			top -= 2
			l, r := sub[stack[top+1]], sub[stack[top]]
			s = subtree{r.end, max(l.need, r.need)}
			if l.need == r.need {
				s.need++
			}
		}
		sub[i] = s
		stack[top] = int32(i)
		top++
	}
}

// second returns the index of binary node i's second kid; the first is
// at i+1.
func (fg *fgen) second(i int) int { return int(fg.sub[i+1].end) }

func (fg *fgen) isConst(i int) bool {
	op := fg.nodes[i].Op
	return op == ir.CNSTC || op == ir.CNSTS || op == ir.CNSTI
}

// stmt compiles the statement tree rooted at node i.
func (fg *fgen) stmt(i int) error {
	t := fg.nodes[i]
	switch t.Op {
	case ir.LABELV:
		fg.labels[t.Lit] = len(fg.g.prog.Code)
		return nil
	case ir.JUMPV:
		at := fg.emit(vm.Instr{Op: vm.JMP})
		fg.branchFix = append(fg.branchFix, branchFixup{at, t.Lit})
		return nil
	case ir.EQI, ir.NEI, ir.LTI, ir.LEI, ir.GTI, ir.GEI:
		return fg.genBranch(i)
	case ir.ASGNI, ir.ASGNC:
		return fg.genStore(i)
	case ir.ARGI:
		return fg.genArg(i + 1)
	case ir.CALLI, ir.CALLV:
		// Result (if any) unused.
		return fg.genCall(i)
	case ir.RETI:
		r, err := fg.expr(i + 1)
		if err != nil {
			return err
		}
		fg.emit(vm.Instr{Op: vm.MOV, Rd: vm.RegArg0, Rs1: r})
		fg.release(r)
		fg.epilogue()
		return nil
	case ir.RETV:
		fg.epilogue()
		return nil
	default:
		// A bare expression statement (possible only through hand-built
		// IR): evaluate and discard.
		r, err := fg.expr(i)
		if err != nil {
			return err
		}
		fg.release(r)
		return nil
	}
}

func (fg *fgen) genBranch(i int) error {
	t, rk := fg.nodes[i], fg.second(i)
	op := branchOpFor[t.Op]
	l, err := fg.expr(i + 1)
	if err != nil {
		return err
	}
	// Compare-immediate form when the right operand is constant and the
	// variant allows it ("ble.i n4,0,$L56").
	if fg.isConst(rk) && !fg.g.opt.NoImmediates {
		at := fg.emit(vm.Instr{Op: immBranchFor[op], Rs1: l, Imm: int32(fg.nodes[rk].Lit)})
		fg.branchFix = append(fg.branchFix, branchFixup{at, t.Lit})
		fg.release(l)
		return nil
	}
	r, err := fg.expr(rk)
	if err != nil {
		return err
	}
	at := fg.emit(vm.Instr{Op: op, Rs1: l, Rs2: r})
	fg.branchFix = append(fg.branchFix, branchFixup{at, t.Lit})
	fg.release(l)
	fg.release(r)
	return nil
}

// genStore compiles ASGNI/ASGNC. Stores of a call result are the one
// place a call appears mid-tree (the front end guarantees the call is
// the direct right child).
func (fg *fgen) genStore(i int) error {
	addr, val := i+1, fg.second(i)
	isChar := fg.nodes[i].Op == ir.ASGNC
	// Unwrap the front end's CVIC before char stores: STB truncates.
	if isChar && fg.nodes[val].Op == ir.CVIC {
		val++
	}
	memop := vm.STW
	if isChar {
		memop = vm.STB
	}

	var v uint8
	if fg.nodes[val].Op == ir.CALLI {
		if err := fg.genCall(val); err != nil {
			return err
		}
		var err error
		v, err = fg.alloc()
		if err != nil {
			return err
		}
		fg.emit(vm.Instr{Op: vm.MOV, Rd: v, Rs1: vm.RegArg0})
	} else {
		var err error
		v, err = fg.expr(val)
		if err != nil {
			return err
		}
	}

	switch a := fg.nodes[addr]; a.Op {
	case ir.ADDRLP, ir.ADDRLP8:
		fg.memOp(memop, v, vm.RegSP, int32(a.Lit), pkLocal, true)
	case ir.ADDRGP:
		ga, ok := fg.g.global(a.Sym)
		if !ok {
			return fmt.Errorf("store to unknown global %q", fg.g.mod.Syms[a.Sym])
		}
		fg.memOp(memop, v, RegGP, ga, 0, false)
	default:
		a, err := fg.expr(addr)
		if err != nil {
			return err
		}
		fg.memOp(memop, v, a, 0, 0, false)
		fg.release(a)
	}
	fg.release(v)
	return nil
}

func (fg *fgen) genArg(val int) error {
	k := fg.pendArgs
	fg.pendArgs++
	v, err := fg.expr(val)
	if err != nil {
		return err
	}
	if k < 4 {
		fg.emit(vm.Instr{Op: vm.MOV, Rd: uint8(k), Rs1: v})
	} else {
		off := (k - 4) * 4
		if off+4 > fg.outSize {
			fg.outSize = off + 4
		}
		fg.memOp(vm.STW, v, vm.RegSP, int32(off), 0, false)
	}
	fg.release(v)
	return nil
}

func (fg *fgen) genCall(i int) error {
	callee := fg.nodes[i+1]
	if callee.Op != ir.ADDRGP {
		return fmt.Errorf("indirect calls are not supported")
	}
	fg.pendArgs = 0
	name := fg.g.mod.Syms[callee.Sym]
	if trap, ok := vm.TrapByName(name); ok {
		fg.emit(vm.Instr{Op: vm.TRAP, Imm: trap})
		return nil
	}
	fn := fg.g.mod.FuncIndex(callee.Sym)
	if fn < 0 {
		return fmt.Errorf("call to undefined function %q", name)
	}
	at := fg.emit(vm.Instr{Op: vm.CALL})
	fg.g.callFix = append(fg.g.callFix, fixup{at: at, fn: fn})
	return nil
}

// aluFor maps an IR binary operator to its VM ALU opcode; vm.BAD marks
// operators that are not ALU operations.
var aluFor = [ir.NumOps]vm.Opcode{
	ir.ADDI: vm.ADD, ir.SUBI: vm.SUB, ir.MULI: vm.MUL,
	ir.DIVI: vm.DIV, ir.MODI: vm.REM, ir.BANDI: vm.AND,
	ir.BORI: vm.OR, ir.BXORI: vm.XOR, ir.LSHI: vm.SHL, ir.RSHI: vm.SHR,
}

// expr evaluates the pure expression tree rooted at node i into a
// freshly allocated scratch register.
func (fg *fgen) expr(i int) (uint8, error) {
	t := fg.nodes[i]
	switch t.Op {
	case ir.CNSTC, ir.CNSTS, ir.CNSTI:
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.loadImm(r, int32(t.Lit))
		return r, nil
	case ir.ADDRLP, ir.ADDRLP8:
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.addImm(r, vm.RegSP, int32(t.Lit), pkLocal, true)
		return r, nil
	case ir.ADDRFP, ir.ADDRFP8:
		// Bare parameter address: the front end only generates ADDRFP
		// under INDIRI (copy-in), handled below.
		return 0, fmt.Errorf("unsupported bare ADDRFP")
	case ir.ADDRGP:
		ga, ok := fg.g.global(t.Sym)
		if !ok {
			return 0, fmt.Errorf("address of unknown global %q", fg.g.mod.Syms[t.Sym])
		}
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.loadImm(r, ga)
		return r, nil
	case ir.INDIRI, ir.INDIRC:
		return fg.genLoad(i)
	case ir.CVCI:
		if fg.nodes[i+1].Op == ir.INDIRC {
			return fg.genLoad(i + 1) // LDB sign-extends
		}
		r, err := fg.expr(i + 1)
		if err != nil {
			return 0, err
		}
		fg.loadImm(vm.RegTmp, 24)
		fg.emit(vm.Instr{Op: vm.SHL, Rd: r, Rs1: r, Rs2: vm.RegTmp})
		fg.emit(vm.Instr{Op: vm.SHR, Rd: r, Rs1: r, Rs2: vm.RegTmp})
		return r, nil
	case ir.CVIC:
		// Value-context truncation to char then implicit widening.
		r, err := fg.expr(i + 1)
		if err != nil {
			return 0, err
		}
		fg.loadImm(vm.RegTmp, 24)
		fg.emit(vm.Instr{Op: vm.SHL, Rd: r, Rs1: r, Rs2: vm.RegTmp})
		fg.emit(vm.Instr{Op: vm.SHR, Rd: r, Rs1: r, Rs2: vm.RegTmp})
		return r, nil
	case ir.NEGI:
		r, err := fg.expr(i + 1)
		if err != nil {
			return 0, err
		}
		fg.emit(vm.Instr{Op: vm.NEG, Rd: r, Rs1: r})
		return r, nil
	case ir.BCOMI:
		r, err := fg.expr(i + 1)
		if err != nil {
			return 0, err
		}
		fg.emit(vm.Instr{Op: vm.NOT, Rd: r, Rs1: r})
		return r, nil
	case ir.CALLI:
		return 0, fmt.Errorf("call in mid-expression position (front end must spill)")
	default:
		if int(t.Op) >= len(aluFor) || aluFor[t.Op] == vm.BAD {
			return 0, fmt.Errorf("unsupported expression operator %s", t.Op)
		}
		return fg.genALU(i, aluFor[t.Op])
	}
}

// genALU evaluates a binary ALU node with Sethi–Ullman ordering and
// spill-on-pressure.
func (fg *fgen) genALU(i int, alu vm.Opcode) (uint8, error) {
	op, l, r := fg.nodes[i].Op, i+1, fg.second(i)
	// Immediate add/sub peephole.
	if !fg.g.opt.NoImmediates && (op == ir.ADDI || op == ir.SUBI) && fg.isConst(r) {
		imm := int32(fg.nodes[r].Lit)
		if op == ir.SUBI {
			imm = -imm
		}
		rl, err := fg.expr(l)
		if err != nil {
			return 0, err
		}
		fg.emit(vm.Instr{Op: vm.ADDI, Rd: rl, Rs1: rl, Imm: imm})
		return rl, nil
	}
	avail := len(fg.free)
	nl, nr := int(fg.sub[l].need), int(fg.sub[r].need)
	if nl >= avail && nr >= avail {
		// Not enough registers for either order: evaluate the right
		// side, spill it, evaluate the left, reload.
		rr, err := fg.expr(r)
		if err != nil {
			return 0, err
		}
		slot := fg.spillSlot()
		fg.memOp(vm.STW, rr, vm.RegSP, int32(slot), pkSpill, true)
		fg.release(rr)
		rl, err := fg.expr(l)
		if err != nil {
			return 0, err
		}
		rr2, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.memOp(vm.LDW, rr2, vm.RegSP, int32(slot), pkSpill, true)
		fg.emit(vm.Instr{Op: alu, Rd: rl, Rs1: rl, Rs2: rr2})
		fg.release(rr2)
		return rl, nil
	}
	if nr > nl {
		rr, err := fg.expr(r)
		if err != nil {
			return 0, err
		}
		rl, err := fg.expr(l)
		if err != nil {
			return 0, err
		}
		fg.emit(vm.Instr{Op: alu, Rd: rl, Rs1: rl, Rs2: rr})
		fg.release(rr)
		return rl, nil
	}
	rl, err := fg.expr(l)
	if err != nil {
		return 0, err
	}
	rr, err := fg.expr(r)
	if err != nil {
		return 0, err
	}
	fg.emit(vm.Instr{Op: alu, Rd: rl, Rs1: rl, Rs2: rr})
	fg.release(rr)
	return rl, nil
}

// genLoad compiles INDIRI/INDIRC with addressing-mode selection.
func (fg *fgen) genLoad(i int) (uint8, error) {
	op := vm.LDW
	if fg.nodes[i].Op == ir.INDIRC {
		op = vm.LDB
	}
	switch addr := fg.nodes[i+1]; addr.Op {
	case ir.ADDRLP, ir.ADDRLP8:
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.memOp(op, r, vm.RegSP, int32(addr.Lit), pkLocal, true)
		return r, nil
	case ir.ADDRFP, ir.ADDRFP8:
		// A negative offset would name no argument register.
		if addr.Lit < 0 {
			return 0, fmt.Errorf("parameter offset %d out of range", addr.Lit)
		}
		k := int(addr.Lit / 4)
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		if k < 4 {
			fg.emit(vm.Instr{Op: vm.MOV, Rd: r, Rs1: uint8(k)})
		} else {
			fg.memOp(vm.LDW, r, vm.RegSP, int32((k-4)*4), pkInArg, true)
		}
		return r, nil
	case ir.ADDRGP:
		ga, ok := fg.g.global(addr.Sym)
		if !ok {
			return 0, fmt.Errorf("load from unknown global %q", fg.g.mod.Syms[addr.Sym])
		}
		r, err := fg.alloc()
		if err != nil {
			return 0, err
		}
		fg.memOp(op, r, RegGP, ga, 0, false)
		return r, nil
	default:
		a, err := fg.expr(i + 1)
		if err != nil {
			return 0, err
		}
		fg.memOp(op, a, a, 0, 0, false)
		return a, nil
	}
}
