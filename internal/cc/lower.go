package cc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ir"
)

// Compile runs the full front end: lex, parse, analyze, lower.
func Compile(name, src string) (*ir.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	return Lower(name, prog)
}

// Lower translates an analyzed program to lcc-style tree IR. Parameters
// are copied into the frame at function entry, as lcc does (and as the
// paper's salt() example shows, where both locals and parameters are
// addressed with ADDRLP).
func Lower(name string, prog *Program) (*ir.Module, error) {
	lw := &lowerer{
		mod:     &ir.Module{Name: name},
		strings: map[string]string{},
		symIDs:  map[string]int32{},
	}
	for _, b := range Builtins {
		lw.mod.Externs = append(lw.mod.Externs, b.Name)
	}
	for _, g := range prog.Globals {
		lw.mod.Globals = append(lw.mod.Globals, lowerGlobal(g))
	}
	for _, fn := range prog.Funcs {
		f, err := lw.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		lw.mod.Functions = append(lw.mod.Functions, f)
	}
	// String-literal globals, in deterministic order.
	var strNames []string
	for _, gname := range lw.strings {
		strNames = append(strNames, gname)
	}
	sort.Strings(strNames)
	byName := map[string]string{}
	for s, gname := range lw.strings {
		byName[gname] = s
	}
	for _, gname := range strNames {
		s := byName[gname]
		data := append([]byte(s), 0)
		lw.mod.Globals = append(lw.mod.Globals, ir.Global{Name: gname, Size: len(data), Init: data})
	}
	lw.numberSymbols()
	if err := lw.mod.Validate(); err != nil {
		return nil, fmt.Errorf("cc: lowering produced invalid IR: %w", err)
	}
	return lw.mod, nil
}

func lowerGlobal(g *GlobalDecl) ir.Global {
	out := ir.Global{Name: g.Sym.Name, Size: g.Sym.Type.Size()}
	switch {
	case g.HasStr:
		out.Init = append([]byte(g.InitStr), 0)
	case g.Init != nil:
		switch g.Sym.Type.Kind {
		case TChar:
			out.Init = []byte{byte(g.Init.Val)}
		default:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(g.Init.Val))
			out.Init = b[:]
		}
	}
	return out
}

// numberSymbols sets the module's symbol table, which is complete
// only once every function is lowered (string-literal globals come
// before the functions in it), and renumbers each ADDRGP node from the
// lowerer's provisional symbol to its index there.
func (lw *lowerer) numberSymbols() {
	m := lw.mod
	m.IndexSymbols()
	renumber := make([]int32, len(lw.symNames))
	for i := range renumber {
		renumber[i] = -1 // a name no symbol has; Validate reports it
	}
	for s, name := range m.Syms {
		if p, ok := lw.symIDs[name]; ok {
			renumber[p] = int32(s)
		}
	}
	for _, f := range m.Functions {
		for i := range f.Nodes {
			if n := &f.Nodes[i]; n.Op == ir.ADDRGP {
				n.Sym = renumber[n.Sym]
			}
		}
	}
}

type lowerer struct {
	mod     *ir.Module
	strings map[string]string // literal -> global name
	// Provisional symbols: ADDRGP nodes index symNames until
	// numberSymbols renumbers them.
	symIDs   map[string]int32
	symNames []string

	fn        *FuncDecl
	frameSize int
	nextLabel int64
	breakLbl  []int64
	contLbl   []int64

	// arena holds the trees under construction, linked by index, and
	// stack is emit's work list; nodes and roots hold the function's
	// finished statements (see ir.Function).
	arena []snode
	stack []int32
	nodes []ir.Node
	roots []int32
}

// snode is a node of a tree under construction, with the arena indices
// of its kids (-1 past the last). A parent only links its kids, so
// building a tree costs one arena entry per node, however deep it is.
type snode struct {
	ir.Node
	kids [2]int32
}

// tree is a tree under construction: the arena index of its root.
// Trees are never changed in place, so one may be used more than once;
// each use is copied out when its statement is emitted.
type tree struct{ at int32 }

// leaf builds a one-node tree.
func (lw *lowerer) leaf(n ir.Node) tree {
	lw.arena = append(lw.arena, snode{Node: n, kids: [2]int32{-1, -1}})
	return tree{int32(len(lw.arena) - 1)}
}

// node builds a tree of op, carrying literal lit, over at most two kids.
func (lw *lowerer) node(op ir.Op, lit int64, kids ...tree) tree {
	t := lw.leaf(ir.Node{Op: op, Lit: lit})
	for i, k := range kids {
		lw.arena[t.at].kids[i] = k.at
	}
	return t
}

// op builds a tree of op, which carries no literal, over kids.
func (lw *lowerer) op(op ir.Op, kids ...tree) tree { return lw.node(op, 0, kids...) }

// root returns t's root node.
func (lw *lowerer) root(t tree) ir.Node { return lw.arena[t.at].Node }

// global builds the address of the named global or function.
func (lw *lowerer) global(name string) tree {
	s, ok := lw.symIDs[name]
	if !ok {
		s = int32(len(lw.symNames))
		lw.symIDs[name] = s
		lw.symNames = append(lw.symNames, name)
	}
	return lw.leaf(ir.Node{Op: ir.ADDRGP, Sym: s})
}

// emit appends t to the function as its next statement, writing its
// nodes out in prefix order.
func (lw *lowerer) emit(t tree) {
	lw.roots = append(lw.roots, int32(len(lw.nodes)))
	stack := append(lw.stack[:0], t.at)
	for len(stack) > 0 {
		n := &lw.arena[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		lw.nodes = append(lw.nodes, n.Node)
		for k := len(n.kids) - 1; k >= 0; k-- {
			if n.kids[k] >= 0 {
				stack = append(stack, n.kids[k])
			}
		}
	}
	lw.stack = stack
}

func (lw *lowerer) newLabel() int64 {
	lw.nextLabel++
	return lw.nextLabel
}

func (lw *lowerer) label(l int64) { lw.emit(lw.node(ir.LABELV, l)) }

func (lw *lowerer) jump(l int64) { lw.emit(lw.node(ir.JUMPV, l)) }

// alloc reserves frame space with alignment and returns the offset.
func (lw *lowerer) alloc(size, align int) int {
	off := (lw.frameSize + align - 1) &^ (align - 1)
	lw.frameSize = off + size
	return off
}

// temp reserves a fresh 4-byte temporary slot.
func (lw *lowerer) temp() int { return lw.alloc(4, 4) }

func (lw *lowerer) strGlobal(s string) string {
	if g, ok := lw.strings[s]; ok {
		return g
	}
	g := fmt.Sprintf(".Lstr%d", len(lw.strings))
	lw.strings[s] = g
	return g
}

func (lw *lowerer) lowerFunc(fn *FuncDecl) (*ir.Function, error) {
	lw.fn = fn
	lw.arena, lw.nodes, lw.roots = lw.arena[:0], lw.nodes[:0], lw.roots[:0]
	lw.frameSize = 0
	lw.nextLabel = 0
	lw.breakLbl = lw.breakLbl[:0]
	lw.contLbl = lw.contLbl[:0]

	// Copy parameters into the frame. Each parameter occupies one
	// 4-byte slot in the caller-visible parameter area (ADDRFP).
	for i, p := range fn.Params {
		p.Offset = lw.alloc(p.Type.Size(), p.Type.Align())
		src := lw.op(ir.INDIRI, lw.leaf(ir.ParamAddr(int64(i*4))))
		lw.store(lw.local(int64(p.Offset)), src, p.Type)
	}
	if err := lw.stmt(fn.Body); err != nil {
		return nil, err
	}
	// Guarantee a terminating return.
	if n := len(lw.roots); n == 0 || lw.nodes[lw.roots[n-1]].Op != ir.RETI && lw.nodes[lw.roots[n-1]].Op != ir.RETV {
		if fn.Ret.Kind == TVoid {
			lw.emit(lw.op(ir.RETV))
		} else {
			lw.emit(lw.op(ir.RETI, lw.constant(0)))
		}
	}
	return &ir.Function{
		Name:      fn.Name,
		NumParams: len(fn.Params),
		FrameSize: (lw.frameSize + 3) &^ 3,
		Nodes:     slices.Clone(lw.nodes),
		Roots:     slices.Clone(lw.roots),
	}, nil
}

// store emits the correctly-typed store of value through addr.
func (lw *lowerer) store(addr, value tree, t *Type) {
	if t.Kind == TChar {
		lw.emit(lw.op(ir.ASGNC, addr, lw.op(ir.CVIC, value)))
	} else {
		lw.emit(lw.op(ir.ASGNI, addr, value))
	}
}

// load builds the correctly-typed load through addr.
func (lw *lowerer) load(addr tree, t *Type) tree {
	if t.Kind == TChar {
		return lw.op(ir.CVCI, lw.op(ir.INDIRC, addr))
	}
	return lw.op(ir.INDIRI, addr)
}

// local builds the address of frame offset off.
func (lw *lowerer) local(off int64) tree { return lw.leaf(ir.LocalAddr(off)) }

// constant builds the smallest constant tree holding v.
func (lw *lowerer) constant(v int64) tree { return lw.leaf(ir.Const(v)) }

func (lw *lowerer) stmt(st *Stmt) error {
	switch st.Kind {
	case SBlock:
		for _, sub := range st.List {
			if err := lw.stmt(sub); err != nil {
				return err
			}
		}
	case SDecl:
		for _, d := range st.Decls {
			d.Sym.Offset = lw.alloc(d.Sym.Type.Size(), d.Sym.Type.Align())
			if d.Init != nil {
				v, err := lw.expr(d.Init)
				if err != nil {
					return err
				}
				lw.store(lw.local(int64(d.Sym.Offset)), v, d.Sym.Type)
			}
		}
	case SExpr:
		return lw.exprStmt(st.Expr)
	case SEmpty:
	case SIf:
		els := lw.newLabel()
		if err := lw.cond(st.Cond, els, false); err != nil {
			return err
		}
		if err := lw.stmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			end := lw.newLabel()
			lw.jump(end)
			lw.label(els)
			if err := lw.stmt(st.Else); err != nil {
				return err
			}
			lw.label(end)
		} else {
			lw.label(els)
		}
	case SWhile:
		top, end := lw.newLabel(), lw.newLabel()
		lw.label(top)
		if err := lw.cond(st.Cond, end, false); err != nil {
			return err
		}
		lw.pushLoop(end, top)
		if err := lw.stmt(st.Body); err != nil {
			return err
		}
		lw.popLoop()
		lw.jump(top)
		lw.label(end)
	case SDoWhile:
		top, cont, end := lw.newLabel(), lw.newLabel(), lw.newLabel()
		lw.label(top)
		lw.pushLoop(end, cont)
		if err := lw.stmt(st.Body); err != nil {
			return err
		}
		lw.popLoop()
		lw.label(cont)
		if err := lw.cond(st.Cond, top, true); err != nil {
			return err
		}
		lw.label(end)
	case SFor:
		if err := lw.stmt(st.Init); err != nil {
			return err
		}
		top, cont, end := lw.newLabel(), lw.newLabel(), lw.newLabel()
		lw.label(top)
		if st.Cond != nil {
			if err := lw.cond(st.Cond, end, false); err != nil {
				return err
			}
		}
		lw.pushLoop(end, cont)
		if err := lw.stmt(st.Body); err != nil {
			return err
		}
		lw.popLoop()
		lw.label(cont)
		if st.Post != nil {
			if err := lw.exprStmt(st.Post); err != nil {
				return err
			}
		}
		lw.jump(top)
		lw.label(end)
	case SSwitch:
		return lw.switchStmt(st)
	case SReturn:
		if st.Expr == nil {
			lw.emit(lw.op(ir.RETV))
			return nil
		}
		v, err := lw.expr(st.Expr)
		if err != nil {
			return err
		}
		lw.emit(lw.op(ir.RETI, v))
	case SBreak:
		lw.jump(lw.breakLbl[len(lw.breakLbl)-1])
	case SContinue:
		lw.jump(lw.contLbl[len(lw.contLbl)-1])
	}
	return nil
}

// switchStmt lowers a C switch: evaluate the scrutinee once into a
// temp, emit an EQI dispatch chain to per-case labels, then the body
// with case labels placed inline (so fallthrough works naturally).
func (lw *lowerer) switchStmt(st *Stmt) error {
	v, err := lw.expr(st.Cond)
	if err != nil {
		return err
	}
	tmp := int64(lw.temp())
	lw.emit(lw.op(ir.ASGNI, lw.local(tmp), v))

	end := lw.newLabel()
	defaultLbl := end
	caseLbl := map[*Stmt]int64{}
	for _, sub := range st.List {
		switch sub.Kind {
		case SCase:
			l := lw.newLabel()
			caseLbl[sub] = l
			lw.emit(lw.node(ir.EQI, l,
				lw.op(ir.INDIRI, lw.local(tmp)), lw.constant(sub.Expr.Val)))
		case SDefault:
			defaultLbl = lw.newLabel()
			caseLbl[sub] = defaultLbl
		}
	}
	lw.jump(defaultLbl)

	// Body: break jumps to end; continue stays bound to the enclosing
	// loop, so only the break stack is pushed.
	lw.breakLbl = append(lw.breakLbl, end)
	for _, sub := range st.List {
		switch sub.Kind {
		case SCase, SDefault:
			lw.label(caseLbl[sub])
		default:
			if err := lw.stmt(sub); err != nil {
				lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
				return err
			}
		}
	}
	lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
	lw.label(end)
	return nil
}

func (lw *lowerer) pushLoop(brk, cont int64) {
	lw.breakLbl = append(lw.breakLbl, brk)
	lw.contLbl = append(lw.contLbl, cont)
}

func (lw *lowerer) popLoop() {
	lw.breakLbl = lw.breakLbl[:len(lw.breakLbl)-1]
	lw.contLbl = lw.contLbl[:len(lw.contLbl)-1]
}

// exprStmt lowers an expression in statement position, avoiding dead
// value materialization for the common side-effect forms.
func (lw *lowerer) exprStmt(e *Expr) error {
	switch e.Kind {
	case EAssign:
		_, err := lw.assign(e, false)
		return err
	case EPostfix:
		_, err := lw.incDec(e.L, e.Op, false, false)
		return err
	case EUnary:
		if e.Op == "++" || e.Op == "--" {
			_, err := lw.incDec(e.L, e.Op, true, false)
			return err
		}
	case ECall:
		_, err := lw.call(e, false)
		return err
	}
	// General case: evaluate for side effects (calls and assignments are
	// emitted as statements during lowering) and discard the pure residue.
	_, err := lw.expr(e)
	return err
}

// addr lowers an lvalue (or array/string designator) to an address tree.
func (lw *lowerer) addr(e *Expr) (tree, error) {
	switch e.Kind {
	case EVar:
		switch e.Sym.Kind {
		case SymGlobal, SymFunc:
			return lw.global(e.Sym.Name), nil
		default:
			return lw.local(int64(e.Sym.Offset)), nil
		}
	case EString:
		return lw.global(lw.strGlobal(e.Str)), nil
	case EIndex:
		base, err := lw.expr(e.L) // decayed pointer value
		if err != nil {
			return tree{}, err
		}
		idx, err := lw.expr(e.R)
		if err != nil {
			return tree{}, err
		}
		return lw.op(ir.ADDI, base, lw.scale(idx, e.Type.Size())), nil
	case EUnary:
		if e.Op == "*" {
			return lw.expr(e.L)
		}
	case EMember:
		var base tree
		var st *Type
		var err error
		if e.Op == "->" {
			base, err = lw.expr(e.L)
			st = e.L.Type.Decay().Elem
		} else {
			base, err = lw.addr(e.L)
			st = e.L.Type
		}
		if err != nil {
			return tree{}, err
		}
		fld := st.Field(e.Name)
		if fld == nil {
			return tree{}, errf(e.Line, e.Col, "internal: missing field %q", e.Name)
		}
		if fld.Offset == 0 {
			return base, nil
		}
		// Fold the field offset into frame-relative addresses.
		if b := lw.root(base); b.Op == ir.ADDRLP || b.Op == ir.ADDRLP8 {
			return lw.local(b.Lit + int64(fld.Offset)), nil
		}
		return lw.op(ir.ADDI, base, lw.constant(int64(fld.Offset))), nil
	}
	return tree{}, errf(e.Line, e.Col, "internal: not an lvalue in lowering")
}

// scale multiplies an index value by an element size, omitting the
// multiply for size 1 and folding constants.
func (lw *lowerer) scale(idx tree, size int) tree {
	if size == 1 {
		return idx
	}
	if n := lw.root(idx); n.Op == ir.CNSTC || n.Op == ir.CNSTS || n.Op == ir.CNSTI {
		return lw.constant(n.Lit * int64(size))
	}
	return lw.op(ir.MULI, idx, lw.constant(int64(size)))
}

// isLeafAddr reports whether an address tree can be safely duplicated.
func (lw *lowerer) isLeafAddr(t tree) bool {
	switch lw.root(t).Op {
	case ir.ADDRLP, ir.ADDRLP8, ir.ADDRFP, ir.ADDRFP8, ir.ADDRGP:
		return true
	}
	return false
}

// stableAddr returns an address tree that may be evaluated twice
// without repeating side effects, spilling to a temp if needed.
func (lw *lowerer) stableAddr(a tree) tree {
	if lw.isLeafAddr(a) {
		return a
	}
	tmp := int64(lw.temp())
	lw.emit(lw.op(ir.ASGNI, lw.local(tmp), a))
	return lw.op(ir.INDIRI, lw.local(tmp))
}

// assign lowers e.L (op)= e.R; when needValue it returns the stored value.
func (lw *lowerer) assign(e *Expr, needValue bool) (tree, error) {
	a, err := lw.addr(e.L)
	if err != nil {
		return tree{}, err
	}
	if needValue || e.Op != "" {
		a = lw.stableAddr(a)
	}
	var v tree
	if e.Op == "" {
		v, err = lw.expr(e.R)
		if err != nil {
			return tree{}, err
		}
	} else {
		rhs, err := lw.expr(e.R)
		if err != nil {
			return tree{}, err
		}
		v, err = lw.binary(e.Op, lw.load(a, e.L.Type), rhs, e.L, e.R)
		if err != nil {
			return tree{}, err
		}
	}
	lw.store(a, v, e.L.Type)
	if !needValue {
		return tree{}, nil
	}
	return lw.load(a, e.L.Type), nil
}

// incDec lowers ++/-- (pre or post); when needValue it returns the
// expression's value (old for postfix, new for prefix).
func (lw *lowerer) incDec(lv *Expr, op string, prefix, needValue bool) (tree, error) {
	a, err := lw.addr(lv)
	if err != nil {
		return tree{}, err
	}
	a = lw.stableAddr(a)
	step := int64(1)
	if lv.Type.Decay().Kind == TPtr {
		step = int64(lv.Type.Decay().Elem.Size())
	}
	old := lw.load(a, lv.Type)
	var saved tree
	if needValue && !prefix {
		tmp := int64(lw.temp())
		lw.emit(lw.op(ir.ASGNI, lw.local(tmp), old))
		old = lw.op(ir.INDIRI, lw.local(tmp))
		saved = old
	}
	bop := ir.ADDI
	if op == "--" {
		bop = ir.SUBI
	}
	lw.store(a, lw.op(bop, old, lw.constant(step)), lv.Type)
	if !needValue {
		return tree{}, nil
	}
	if prefix {
		return lw.load(a, lv.Type), nil
	}
	return saved, nil
}

// call lowers a function call; when needValue the result is spilled to
// a temp so ARGI/CALL sequences for distinct calls never interleave.
func (lw *lowerer) call(e *Expr, needValue bool) (tree, error) {
	// Evaluate all argument values first: any nested calls spill
	// themselves to temps here, keeping this call's ARGI block contiguous.
	args := make([]tree, len(e.Args))
	for i, aexpr := range e.Args {
		v, err := lw.expr(aexpr)
		if err != nil {
			return tree{}, err
		}
		args[i] = v
	}
	for _, v := range args {
		lw.emit(lw.op(ir.ARGI, v))
	}
	callee := lw.global(e.L.Name)
	retVoid := e.L.Sym.Type.Elem.Kind == TVoid
	if !needValue {
		if retVoid {
			lw.emit(lw.op(ir.CALLV, callee))
		} else {
			lw.emit(lw.op(ir.CALLI, callee))
		}
		return tree{}, nil
	}
	if retVoid {
		return tree{}, errf(e.Line, e.Col, "void value used")
	}
	tmp := int64(lw.temp())
	lw.emit(lw.op(ir.ASGNI, lw.local(tmp), lw.op(ir.CALLI, callee)))
	return lw.op(ir.INDIRI, lw.local(tmp)), nil
}

var binOpMap = map[string]ir.Op{
	"*": ir.MULI, "/": ir.DIVI, "%": ir.MODI,
	"&": ir.BANDI, "|": ir.BORI, "^": ir.BXORI,
	"<<": ir.LSHI, ">>": ir.RSHI,
}

// binary lowers an arithmetic/bitwise binary operation on already
// lowered operand values, applying pointer scaling rules.
func (lw *lowerer) binary(op string, l, r tree, le, re *Expr) (tree, error) {
	lt, rt := le.Type.Decay(), re.Type.Decay()
	switch op {
	case "+":
		switch {
		case lt.Kind == TPtr:
			return lw.op(ir.ADDI, l, lw.scale(r, lt.Elem.Size())), nil
		case rt.Kind == TPtr:
			return lw.op(ir.ADDI, lw.scale(l, rt.Elem.Size()), r), nil
		default:
			return lw.op(ir.ADDI, l, r), nil
		}
	case "-":
		switch {
		case lt.Kind == TPtr && rt.Kind == TPtr:
			diff := lw.op(ir.SUBI, l, r)
			if sz := lt.Elem.Size(); sz > 1 {
				return lw.op(ir.DIVI, diff, lw.constant(int64(sz))), nil
			}
			return diff, nil
		case lt.Kind == TPtr:
			return lw.op(ir.SUBI, l, lw.scale(r, lt.Elem.Size())), nil
		default:
			return lw.op(ir.SUBI, l, r), nil
		}
	default:
		irop, ok := binOpMap[op]
		if !ok {
			return tree{}, errf(le.Line, le.Col, "internal: binary op %q", op)
		}
		return lw.op(irop, l, r), nil
	}
}

// relBranch maps (relational op, sense) to a compare-and-branch operator.
func relBranch(op string, jumpIfTrue bool) ir.Op {
	type key struct {
		op  string
		pos bool
	}
	m := map[key]ir.Op{
		{"==", true}: ir.EQI, {"==", false}: ir.NEI,
		{"!=", true}: ir.NEI, {"!=", false}: ir.EQI,
		{"<", true}: ir.LTI, {"<", false}: ir.GEI,
		{"<=", true}: ir.LEI, {"<=", false}: ir.GTI,
		{">", true}: ir.GTI, {">", false}: ir.LEI,
		{">=", true}: ir.GEI, {">=", false}: ir.LTI,
	}
	return m[key{op, jumpIfTrue}]
}

func isRelOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// cond lowers a condition, branching to target when the condition's
// truth equals jumpIfTrue and falling through otherwise.
func (lw *lowerer) cond(e *Expr, target int64, jumpIfTrue bool) error {
	switch {
	case e.Kind == EUnary && e.Op == "!":
		return lw.cond(e.L, target, !jumpIfTrue)
	case e.Kind == EBinary && isRelOp(e.Op):
		l, err := lw.expr(e.L)
		if err != nil {
			return err
		}
		r, err := lw.expr(e.R)
		if err != nil {
			return err
		}
		lw.emit(lw.node(relBranch(e.Op, jumpIfTrue), target, l, r))
		return nil
	case e.Kind == EBinary && e.Op == "&&":
		if jumpIfTrue {
			skip := lw.newLabel()
			if err := lw.cond(e.L, skip, false); err != nil {
				return err
			}
			if err := lw.cond(e.R, target, true); err != nil {
				return err
			}
			lw.label(skip)
			return nil
		}
		if err := lw.cond(e.L, target, false); err != nil {
			return err
		}
		return lw.cond(e.R, target, false)
	case e.Kind == EBinary && e.Op == "||":
		if jumpIfTrue {
			if err := lw.cond(e.L, target, true); err != nil {
				return err
			}
			return lw.cond(e.R, target, true)
		}
		skip := lw.newLabel()
		if err := lw.cond(e.L, skip, true); err != nil {
			return err
		}
		if err := lw.cond(e.R, target, false); err != nil {
			return err
		}
		lw.label(skip)
		return nil
	case e.Kind == EConst:
		if (e.Val != 0) == jumpIfTrue {
			lw.jump(target)
		}
		return nil
	default:
		v, err := lw.expr(e)
		if err != nil {
			return err
		}
		op := ir.NEI
		if !jumpIfTrue {
			op = ir.EQI
		}
		lw.emit(lw.node(op, target, v, lw.constant(0)))
		return nil
	}
}

// condValue materializes a boolean expression as 0/1 through a temp.
func (lw *lowerer) condValue(e *Expr) (tree, error) {
	tmp := int64(lw.temp())
	end := lw.newLabel()
	lw.emit(lw.op(ir.ASGNI, lw.local(tmp), lw.constant(1)))
	if err := lw.cond(e, end, true); err != nil {
		return tree{}, err
	}
	lw.emit(lw.op(ir.ASGNI, lw.local(tmp), lw.constant(0)))
	lw.label(end)
	return lw.op(ir.INDIRI, lw.local(tmp)), nil
}

// expr lowers an expression to a value tree, emitting any side-effect
// statements (calls, assignments, boolean materialization) first.
func (lw *lowerer) expr(e *Expr) (tree, error) {
	switch e.Kind {
	case EConst:
		return lw.constant(int64(int32(e.Val))), nil
	case EString:
		return lw.addr(e)
	case EVar:
		if e.Type.Kind == TArray {
			return lw.addr(e) // decay to pointer
		}
		a, err := lw.addr(e)
		if err != nil {
			return tree{}, err
		}
		return lw.load(a, e.Type), nil
	case EUnary:
		switch e.Op {
		case "-":
			v, err := lw.expr(e.L)
			if err != nil {
				return tree{}, err
			}
			return lw.op(ir.NEGI, v), nil
		case "~":
			v, err := lw.expr(e.L)
			if err != nil {
				return tree{}, err
			}
			return lw.op(ir.BCOMI, v), nil
		case "!":
			return lw.condValue(e)
		case "*":
			a, err := lw.expr(e.L)
			if err != nil {
				return tree{}, err
			}
			if e.Type.Kind == TArray {
				return a, nil
			}
			return lw.load(a, e.Type), nil
		case "&":
			return lw.addr(e.L)
		case "++", "--":
			return lw.incDec(e.L, e.Op, true, true)
		}
		return tree{}, errf(e.Line, e.Col, "internal: unary %q", e.Op)
	case EPostfix:
		return lw.incDec(e.L, e.Op, false, true)
	case EBinary:
		switch {
		case e.Op == "&&" || e.Op == "||" || isRelOp(e.Op):
			return lw.condValue(e)
		default:
			l, err := lw.expr(e.L)
			if err != nil {
				return tree{}, err
			}
			r, err := lw.expr(e.R)
			if err != nil {
				return tree{}, err
			}
			return lw.binary(e.Op, l, r, e.L, e.R)
		}
	case EAssign:
		return lw.assign(e, true)
	case EIndex, EMember:
		a, err := lw.addr(e)
		if err != nil {
			return tree{}, err
		}
		if e.Type.Kind == TArray {
			return a, nil
		}
		return lw.load(a, e.Type), nil
	case ECall:
		return lw.call(e, true)
	case ECond:
		// cond ? a : b through a temp, like the boolean materializer.
		tmp := int64(lw.temp())
		elseL, endL := lw.newLabel(), lw.newLabel()
		if err := lw.cond(e.Cond, elseL, false); err != nil {
			return tree{}, err
		}
		v, err := lw.expr(e.L)
		if err != nil {
			return tree{}, err
		}
		lw.emit(lw.op(ir.ASGNI, lw.local(tmp), v))
		lw.jump(endL)
		lw.label(elseL)
		v, err = lw.expr(e.R)
		if err != nil {
			return tree{}, err
		}
		lw.emit(lw.op(ir.ASGNI, lw.local(tmp), v))
		lw.label(endL)
		return lw.op(ir.INDIRI, lw.local(tmp)), nil
	}
	return tree{}, errf(e.Line, e.Col, "internal: expression kind %d", e.Kind)
}
