package ir

// Node is one IR node. A function stores its statement trees one after
// another in a single []Node, each tree in prefix order: a node is
// followed by the subtrees of its kids, left to right. Every operator
// has a fixed arity, so the order alone gives the structure and nodes
// need no links — the same order the wire format's shape stream uses.
// A node holds no pointers: a name literal is an index into the
// module's symbol table.
type Node struct {
	Op  Op
	Sym int32 // index into Module.Syms, when Op.Lit() == LitName
	Lit int64 // integer literal, when Op.Lit() == LitInt
}

// Const returns the smallest constant node that holds v, using the
// paper's 8/16-bit-flagged operators when the value fits.
func Const(v int64) Node {
	switch {
	case v >= -128 && v <= 127:
		return Node{Op: CNSTC, Lit: v}
	case v >= -32768 && v <= 32767:
		return Node{Op: CNSTS, Lit: v}
	default:
		return Node{Op: CNSTI, Lit: v}
	}
}

// LocalAddr returns the smallest local-address node for a frame offset.
func LocalAddr(offset int64) Node {
	if offset >= 0 && offset <= 255 {
		return Node{Op: ADDRLP8, Lit: offset}
	}
	return Node{Op: ADDRLP, Lit: offset}
}

// ParamAddr returns the smallest parameter-address node for an offset.
func ParamAddr(offset int64) Node {
	if offset >= 0 && offset <= 255 {
		return Node{Op: ADDRFP8, Lit: offset}
	}
	return Node{Op: ADDRFP, Lit: offset}
}
