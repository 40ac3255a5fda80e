package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// AppendTree parses one tree in the textual form TreeString renders,
// e.g. "ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))", and
// appends it to f as its last statement; a name must be in m.Syms.
// Whitespace between tokens is ignored. It builds IR by hand, for
// tests; on an error f is unchanged.
func (m *Module) AppendTree(f *Function, s string) error {
	p := &treeParser{src: s, m: m, f: f}
	root := len(f.Nodes)
	err := p.parse()
	if p.skipSpace(); err == nil && p.pos != len(p.src) {
		err = fmt.Errorf("ir: trailing input at %d: %q", p.pos, p.src[p.pos:])
	}
	if err != nil {
		f.Nodes = f.Nodes[:root]
		return err
	}
	f.Roots = append(f.Roots, int32(root))
	return nil
}

type treeParser struct {
	src string
	pos int
	m   *Module
	f   *Function
}

func (p *treeParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *treeParser) parse() error {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && (isIdentChar(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return fmt.Errorf("ir: expected operator at %d", start)
	}
	opName := p.src[start:p.pos]
	op, ok := OpByName(opName)
	if !ok {
		return fmt.Errorf("ir: unknown operator %q", opName)
	}
	n := Node{Op: op}
	p.skipSpace()
	if op.Lit() != LitNone {
		if p.pos >= len(p.src) || p.src[p.pos] != '[' {
			return fmt.Errorf("ir: %s requires [literal] at %d", op, p.pos)
		}
		p.pos++
		litStart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != ']' {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return fmt.Errorf("ir: unterminated literal for %s", op)
		}
		lit := p.src[litStart:p.pos]
		p.pos++ // ']'
		switch op.Lit() {
		case LitInt:
			v, err := strconv.ParseInt(strings.TrimSpace(lit), 10, 64)
			if err != nil {
				return fmt.Errorf("ir: bad integer literal %q for %s", lit, op)
			}
			n.Lit = v
		case LitName:
			sym := slices.Index(p.m.Syms, lit)
			if sym < 0 {
				return fmt.Errorf("ir: unknown symbol %q for %s", lit, op)
			}
			n.Sym = int32(sym)
		}
	}
	p.f.Nodes = append(p.f.Nodes, n)
	p.skipSpace()
	if op.Arity() > 0 {
		if p.pos >= len(p.src) || p.src[p.pos] != '(' {
			return fmt.Errorf("ir: %s requires %d operand(s) at %d", op, op.Arity(), p.pos)
		}
		p.pos++
		for i := 0; i < op.Arity(); i++ {
			if i > 0 {
				p.skipSpace()
				if p.pos >= len(p.src) || p.src[p.pos] != ',' {
					return fmt.Errorf("ir: expected ',' in %s operands at %d", op, p.pos)
				}
				p.pos++
			}
			if err := p.parse(); err != nil {
				return err
			}
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return fmt.Errorf("ir: expected ')' closing %s at %d", op, p.pos)
		}
		p.pos++
	}
	return nil
}

func isIdentChar(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_'
}
