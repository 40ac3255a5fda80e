package ir

// Node is one IR node. A function stores its statement trees one after
// another in a single []Node, each tree in prefix order: a node is
// followed by the subtrees of its kids, left to right. Every operator
// has a fixed arity, so the order alone gives the structure and nodes
// need no links — the same order the wire format's shape stream uses.
// A node holds no pointers, and its one literal is 32 bits, as the VM's
// immediates and the wire format's literal streams are: Op.Lit() says
// whether Lit is an integer or, for a name, an index into the module's
// symbol table.
type Node struct {
	Op  Op
	Lit int32 // integer literal, or index into Module.Syms when Op.Lit() == LitName
}

// Const returns the smallest constant node that holds v, using the
// paper's 8/16-bit-flagged operators when the value fits.
func Const(v int32) Node {
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
func LocalAddr(offset int32) Node {
	if offset >= 0 && offset <= 255 {
		return Node{Op: ADDRLP8, Lit: offset}
	}
	return Node{Op: ADDRLP, Lit: offset}
}

// ParamAddr returns the smallest parameter-address node for an offset.
func ParamAddr(offset int32) Node {
	if offset >= 0 && offset <= 255 {
		return Node{Op: ADDRFP8, Lit: offset}
	}
	return Node{Op: ADDRFP, Lit: offset}
}
