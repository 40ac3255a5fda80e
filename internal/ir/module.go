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
	Trees     []*Tree
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
		for _, t := range f.Trees {
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Validate checks structural invariants: operator arities and literal
// kinds are enforced by construction, so this checks symbol uniqueness
// (externs may repeat; a global may not repeat an extern or a global,
// nor a function any earlier name), label consistency (see
// LabelCheck) and that ADDRGP names resolve to a known symbol.
func (m *Module) Validate() error {
	known := map[string]bool{}
	for _, e := range m.Externs {
		known[e] = true
	}
	for _, g := range m.Globals {
		if known[g.Name] {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		known[g.Name] = true
	}
	for _, f := range m.Functions {
		if known[f.Name] {
			return fmt.Errorf("ir: duplicate symbol %q", f.Name)
		}
		known[f.Name] = true
	}
	var (
		labels  LabelCheck
		fn      *Function
		walkErr error
	)
	visit := func(n *Tree) {
		switch {
		case walkErr != nil:
		case n.Op == LABELV:
			walkErr = labels.Define(n.Lit)
		case n.Op.IsBranch() || n.Op == JUMPV:
			labels.Use(n.Lit)
		case n.Op == ADDRGP:
			if !known[n.Name] {
				walkErr = fmt.Errorf("ir: %s references unknown symbol %q", fn.Name, n.Name)
			}
		}
	}
	for _, fn = range m.Functions {
		labels.Begin(fn.Name)
		for _, t := range fn.Trees {
			if t.Walk(visit); walkErr != nil {
				return walkErr
			}
		}
		if err := labels.End(); err != nil {
			return err
		}
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
	defs map[int64]int32 // label -> gen of the last function defining it
	uses []int64         // targets used in the current function
}

// Begin starts checking the function named fn.
func (c *LabelCheck) Begin(fn string) {
	if c.defs == nil {
		c.defs = map[int64]int32{}
	}
	c.fn = fn
	c.gen++
	c.uses = c.uses[:0]
}

// Define records a definition of label l, failing if the current
// function already defines it.
func (c *LabelCheck) Define(l int64) error {
	if c.defs[l] == c.gen {
		return fmt.Errorf("ir: %s defines label %d more than once", c.fn, l)
	}
	c.defs[l] = c.gen
	return nil
}

// Use records a branch or jump to label l.
func (c *LabelCheck) Use(l int64) { c.uses = append(c.uses, l) }

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
		n += len(f.Trees)
	}
	return n
}

// NumNodes reports the total IR node count across functions.
func (m *Module) NumNodes() int {
	n := 0
	for _, f := range m.Functions {
		for _, t := range f.Trees {
			n += t.Size()
		}
	}
	return n
}
