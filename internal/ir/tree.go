package ir

import (
	"fmt"
	"strings"
)

// Tree is one IR node. Leaves carry a literal operand (integer or
// symbolic name) according to their operator's LitKind.
type Tree struct {
	Op   Op
	Kids []*Tree
	Lit  int64  // integer literal, when Op.Lit() == LitInt
	Name string // name literal, when Op.Lit() == LitName
}

// New constructs a tree node and checks the operator's arity.
func New(op Op, kids ...*Tree) *Tree {
	if len(kids) != op.Arity() {
		panic(fmt.Sprintf("ir: %s expects %d kids, got %d", op, op.Arity(), len(kids)))
	}
	return &Tree{Op: op, Kids: kids}
}

// NewLit constructs a node carrying an integer literal.
func NewLit(op Op, lit int64, kids ...*Tree) *Tree {
	t := New(op, kids...)
	t.Lit = lit
	return t
}

// NewName constructs a node carrying a name literal.
func NewName(op Op, name string, kids ...*Tree) *Tree {
	t := New(op, kids...)
	t.Name = name
	return t
}

// Const builds the smallest constant node that holds v, using the
// paper's 8/16-bit-flagged operators when the value fits.
func Const(v int64) *Tree {
	switch {
	case v >= -128 && v <= 127:
		return NewLit(CNSTC, v)
	case v >= -32768 && v <= 32767:
		return NewLit(CNSTS, v)
	default:
		return NewLit(CNSTI, v)
	}
}

// LocalAddr builds the smallest local-address node for a frame offset.
func LocalAddr(offset int64) *Tree {
	if offset >= 0 && offset <= 255 {
		return NewLit(ADDRLP8, offset)
	}
	return NewLit(ADDRLP, offset)
}

// ParamAddr builds the smallest parameter-address node for an offset.
func ParamAddr(offset int64) *Tree {
	if offset >= 0 && offset <= 255 {
		return NewLit(ADDRFP8, offset)
	}
	return NewLit(ADDRFP, offset)
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{Op: t.Op, Lit: t.Lit, Name: t.Name}
	if len(t.Kids) > 0 {
		c.Kids = make([]*Tree, len(t.Kids))
		for i, k := range t.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return c
}

// Equal reports structural equality including literals.
func (t *Tree) Equal(o *Tree) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Op != o.Op || t.Lit != o.Lit || t.Name != o.Name || len(t.Kids) != len(o.Kids) {
		return false
	}
	for i := range t.Kids {
		if !t.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Size reports the number of nodes in the tree.
func (t *Tree) Size() int {
	n := 1
	for _, k := range t.Kids {
		n += k.Size()
	}
	return n
}

// Walk visits the tree in prefix order, the serialization order used by
// the wire format ("one per operator, emitted in prefix order").
func (t *Tree) Walk(visit func(*Tree)) {
	visit(t)
	for _, k := range t.Kids {
		k.Walk(visit)
	}
}

// String renders the paper's textual form, e.g.
// ASGNI(ADDRLP8[72], SUBI(INDIRI(ADDRLP8[72]),CNSTC[1])).
func (t *Tree) String() string {
	var sb strings.Builder
	t.write(&sb, false)
	return sb.String()
}

// PatternString renders the tree with every literal replaced by "*",
// the patternized form from the paper's §2.
func (t *Tree) PatternString() string {
	var sb strings.Builder
	t.write(&sb, true)
	return sb.String()
}

func (t *Tree) write(sb *strings.Builder, wildcard bool) {
	sb.WriteString(t.Op.String())
	switch t.Op.Lit() {
	case LitInt:
		if wildcard {
			sb.WriteString("[*]")
		} else {
			fmt.Fprintf(sb, "[%d]", t.Lit)
		}
	case LitName:
		if wildcard {
			sb.WriteString("[*]")
		} else {
			fmt.Fprintf(sb, "[%s]", t.Name)
		}
	}
	if len(t.Kids) > 0 {
		sb.WriteByte('(')
		for i, k := range t.Kids {
			if i > 0 {
				sb.WriteByte(',')
			}
			k.write(sb, wildcard)
		}
		sb.WriteByte(')')
	}
}

// Shape returns the prefix-order operator sequence with literals
// removed — the "pattern" the wire format's operator stream carries.
// Two trees with equal Shape differ only in literal operands.
func (t *Tree) Shape() []Op {
	ops := make([]Op, 0, t.Size())
	t.Walk(func(n *Tree) { ops = append(ops, n.Op) })
	return ops
}

// Literals appends, in prefix order, every (op, literal) pair in the
// tree: integer literals carry value and names carry the symbol. This
// is the per-opcode stream split from §3 step 2.
type Literal struct {
	Op   Op
	Int  int64
	Name string
}

// CollectLiterals returns the tree's literal operands in prefix order.
func (t *Tree) CollectLiterals() []Literal {
	var lits []Literal
	t.Walk(func(n *Tree) {
		switch n.Op.Lit() {
		case LitInt:
			lits = append(lits, Literal{Op: n.Op, Int: n.Lit})
		case LitName:
			lits = append(lits, Literal{Op: n.Op, Name: n.Name})
		}
	})
	return lits
}

// TreeFromShape rebuilds a tree skeleton from a prefix-order operator
// sequence, consuming literals from lits in prefix order. It returns
// the tree, the number of ops consumed, and the number of literals
// consumed, or an error for a malformed sequence.
func TreeFromShape(ops []Op, lits []Literal) (*Tree, int, int, error) {
	opIdx, litIdx := 0, 0
	var build func() (*Tree, error)
	build = func() (*Tree, error) {
		if opIdx >= len(ops) {
			return nil, fmt.Errorf("ir: shape underflow at op %d", opIdx)
		}
		op := ops[opIdx]
		opIdx++
		if !op.Valid() {
			return nil, fmt.Errorf("ir: invalid op %d in shape", op)
		}
		t := &Tree{Op: op}
		switch op.Lit() {
		case LitInt:
			if litIdx >= len(lits) {
				return nil, fmt.Errorf("ir: literal underflow for %s", op)
			}
			t.Lit = lits[litIdx].Int
			litIdx++
		case LitName:
			if litIdx >= len(lits) {
				return nil, fmt.Errorf("ir: literal underflow for %s", op)
			}
			t.Name = lits[litIdx].Name
			litIdx++
		}
		for i := 0; i < op.Arity(); i++ {
			k, err := build()
			if err != nil {
				return nil, err
			}
			t.Kids = append(t.Kids, k)
		}
		return t, nil
	}
	t, err := build()
	if err != nil {
		return nil, 0, 0, err
	}
	return t, opIdx, litIdx, nil
}
