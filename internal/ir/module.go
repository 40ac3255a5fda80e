package ir

import (
	"fmt"
	"strings"
)

// Function is one compiled function: an ordered forest of statement
// trees plus frame layout metadata.
type Function struct {
	Name      string
	NumParams int
	// FrameSize is the byte size of the local-variable area; ADDRLP
	// offsets index into it. Parameter offsets index a separate area
	// addressed by ADDRFP.
	FrameSize int
	// Nodes holds the statement trees in order, one after another,
	// each in prefix order (see Node).
	Nodes []Node
	// Roots[k] is the index in Nodes of tree k's root; the tree ends
	// where the next one starts, the last one where Nodes does.
	Roots []int32
}

// Tree returns the nodes of tree k.
func (f *Function) Tree(k int) []Node {
	end := len(f.Nodes)
	if k+1 < len(f.Roots) {
		end = int(f.Roots[k+1])
	}
	return f.Nodes[f.Roots[k]:end]
}

// Global is a module-level datum.
type Global struct {
	Name string
	Size int
	// Init holds initial bytes (len <= Size); the remainder is zero.
	Init []byte
}

// Module is a compilation unit: globals plus functions. Execution
// starts at the function named "main".
type Module struct {
	Name      string
	Globals   []Global
	Functions []*Function
	// Externs lists symbols supplied by the runtime (builtin functions
	// such as putint); ADDRGP references to them are valid.
	Externs []string
	// Syms is the symbol table a name node's Lit indexes: the externs, the
	// globals, then the functions, each name once, at its first
	// occurrence (see IndexSymbols). The wire format numbers name
	// literals the same way.
	Syms []string
}

// IndexSymbols sets m.Syms from the externs, globals and functions.
func (m *Module) IndexSymbols() {
	n := len(m.Externs) + len(m.Globals) + len(m.Functions)
	m.Syms = make([]string, 0, n)
	seen := make(map[string]bool, n)
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			m.Syms = append(m.Syms, name)
		}
	}
	for _, e := range m.Externs {
		add(e)
	}
	for _, g := range m.Globals {
		add(g.Name)
	}
	for _, f := range m.Functions {
		add(f.Name)
	}
}

// GlobalIndex returns the index in m.Globals of symbol s, or -1 when s
// names no global. FuncIndex does the same for m.Functions. Both rely
// on the numbering ValidateSymbols checks: globals and functions repeat
// no earlier name, so they fill the tail of Syms in order.
func (m *Module) GlobalIndex(s int32) int {
	i := int(s) - (len(m.Syms) - len(m.Functions) - len(m.Globals))
	if i < 0 || i >= len(m.Globals) {
		return -1
	}
	return i
}

// FuncIndex returns the index in m.Functions of symbol s, or -1.
func (m *Module) FuncIndex(s int32) int {
	i := int(s) - (len(m.Syms) - len(m.Functions))
	if i < 0 || i >= len(m.Functions) {
		return -1
	}
	return i
}

// Function looks up a function by name.
func (m *Module) Function(name string) *Function {
	for _, f := range m.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String renders the whole module in the paper's textual tree form.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "global %s %d\n", g.Name, g.Size)
	}
	for _, f := range m.Functions {
		fmt.Fprintf(&sb, "func %s params %d frame %d\n", f.Name, f.NumParams, f.FrameSize)
		for k := range f.Roots {
			m.writeTree(&sb, f.Tree(k), 0)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TreeString renders tree k of f in the paper's textual form, e.g.
// ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1])), naming
// symbols from m.Syms.
func (m *Module) TreeString(f *Function, k int) string {
	var sb strings.Builder
	m.writeTree(&sb, f.Tree(k), 0)
	return sb.String()
}

// writeTree writes the subtree at nodes[i] and returns the index just
// past it.
func (m *Module) writeTree(sb *strings.Builder, nodes []Node, i int) int {
	n := nodes[i]
	sb.WriteString(n.Op.String())
	switch n.Op.Lit() {
	case LitInt:
		fmt.Fprintf(sb, "[%d]", n.Lit)
	case LitName:
		if n.Lit >= 0 && int(n.Lit) < len(m.Syms) {
			fmt.Fprintf(sb, "[%s]", m.Syms[n.Lit])
		} else {
			fmt.Fprintf(sb, "[#%d]", n.Lit)
		}
	}
	i++
	if arity := n.Op.Arity(); arity > 0 {
		sb.WriteByte('(')
		for k := 0; k < arity; k++ {
			if k > 0 {
				sb.WriteByte(',')
			}
			i = m.writeTree(sb, nodes, i)
		}
		sb.WriteByte(')')
	}
	return i
}

// Validate checks the module's invariants, so that consumers may index
// its node arrays without further checks:
//   - symbols: externs may repeat, but a global may not repeat an
//     extern or a global, nor a function any earlier name, and Syms
//     numbers them as IndexSymbols does;
//   - trees: each function's Roots start its trees in order, every
//     tree is exactly one well-formed prefix-order tree of valid
//     operators, and the last one ends with Nodes;
//   - labels (see LabelCheck), and every ADDRGP symbol index is in
//     range, so it names a known symbol.
//
// codegen.Generate does not call it: it runs ValidateSymbols and makes
// the per-node checks in the walk it already makes over each tree.
func (m *Module) Validate() error {
	if err := m.ValidateSymbols(); err != nil {
		return err
	}
	var labels LabelCheck
	for _, f := range m.Functions {
		labels.Begin(f.Name)
		if err := m.checkTrees(f, &labels); err != nil {
			return err
		}
		if err := labels.End(); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSymbols is Validate's check of the symbol table alone, in
// O(symbols): the names are distinct where they must be, and Syms
// numbers them as IndexSymbols does, so GlobalIndex and FuncIndex hold.
func (m *Module) ValidateSymbols() error {
	known := make(map[string]bool, len(m.Syms))
	next := 0 // symbols numbered so far
	number := func(name string) error {
		known[name] = true
		if next >= len(m.Syms) || m.Syms[next] != name {
			return fmt.Errorf("ir: symbol %d is not %q", next, name)
		}
		next++
		return nil
	}
	for _, e := range m.Externs {
		if !known[e] {
			if err := number(e); err != nil {
				return err
			}
		}
	}
	for _, g := range m.Globals {
		if known[g.Name] {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		if err := number(g.Name); err != nil {
			return err
		}
	}
	for _, f := range m.Functions {
		if known[f.Name] {
			return fmt.Errorf("ir: duplicate symbol %q", f.Name)
		}
		if err := number(f.Name); err != nil {
			return err
		}
	}
	if next != len(m.Syms) {
		return fmt.Errorf("ir: %d symbols in the table, %d in the module", len(m.Syms), next)
	}
	return nil
}

// checkTrees is Validate's one linear scan over f's nodes.
func (m *Module) checkTrees(f *Function, labels *LabelCheck) error {
	k, open := 0, 0 // trees begun; subtrees the current tree still owes
	for i, n := range f.Nodes {
		if open == 0 {
			if k == len(f.Roots) || int(f.Roots[k]) != i {
				return fmt.Errorf("ir: %s: node %d starts no tree Roots names", f.Name, i)
			}
			k, open = k+1, 1
		}
		if !n.Op.Valid() {
			return fmt.Errorf("ir: %s: invalid op %d", f.Name, n.Op)
		}
		open += n.Op.Arity() - 1
		switch n.Op {
		case LABELV:
			if err := labels.Define(n.Lit); err != nil {
				return err
			}
		case EQI, NEI, LTI, LEI, GTI, GEI, JUMPV:
			labels.Use(n.Lit)
		case ADDRGP:
			if n.Lit < 0 || int(n.Lit) >= len(m.Syms) {
				return fmt.Errorf("ir: %s references unknown symbol %d", f.Name, n.Lit)
			}
		}
	}
	if open != 0 || k != len(f.Roots) {
		return fmt.Errorf("ir: %s: tree %d is cut short", f.Name, k)
	}
	return nil
}

// LabelCheck enforces the label invariants of one function at a time:
// each LABELV label is defined at most once, and every branch or JUMPV
// target is defined in the same function (checked at End, so forward
// references pass). One LabelCheck serves a whole module: its table is
// reused across functions instead of rebuilt for each. Validate and the
// wire decoder share it.
type LabelCheck struct {
	fn   string
	gen  int32           // 1-based index of the current function
	defs map[int32]int32 // label -> gen of the last function defining it
	uses []int32         // targets used in the current function
}

// Begin starts checking the function named fn.
func (c *LabelCheck) Begin(fn string) {
	if c.defs == nil {
		c.defs = map[int32]int32{}
	}
	c.fn = fn
	c.gen++
	c.uses = c.uses[:0]
}

// Define records a definition of label l, failing if the current
// function already defines it.
func (c *LabelCheck) Define(l int32) error {
	if c.defs[l] == c.gen {
		return fmt.Errorf("ir: %s defines label %d more than once", c.fn, l)
	}
	c.defs[l] = c.gen
	return nil
}

// Use records a branch or jump to label l.
func (c *LabelCheck) Use(l int32) { c.uses = append(c.uses, l) }

// End fails if the current function uses a label it never defines.
func (c *LabelCheck) End() error {
	for _, l := range c.uses {
		if c.defs[l] != c.gen {
			return fmt.Errorf("ir: %s branches to undefined label %d", c.fn, l)
		}
	}
	return nil
}

// NumTrees reports the total statement-tree count across functions.
func (m *Module) NumTrees() int {
	n := 0
	for _, f := range m.Functions {
		n += len(f.Roots)
	}
	return n
}
