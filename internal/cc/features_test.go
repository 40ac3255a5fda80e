package cc

import (
	"strings"
	"testing"
)

// Front-end-level tests for ?:, switch, sizeof, and structs (the
// end-to-end behaviour tests live in internal/codegen).

func TestLexNewTokens(t *testing.T) {
	toks := lexKinds(t, "a ? b : c . d -> e")
	var puncts []string
	for _, tok := range toks {
		if tok.Kind == TokPunct {
			puncts = append(puncts, tok.Str)
		}
	}
	want := []string{"?", ":", ".", "->"}
	if len(puncts) != len(want) {
		t.Fatalf("puncts = %v", puncts)
	}
	for i := range want {
		if puncts[i] != want[i] {
			t.Errorf("punct %d = %q, want %q", i, puncts[i], want[i])
		}
	}
	for _, kw := range []string{"switch", "case", "default", "sizeof", "struct"} {
		toks := lexKinds(t, kw)
		if toks[0].Kind != TokKeyword {
			t.Errorf("%q should lex as a keyword", kw)
		}
	}
}

func TestParseTernaryShape(t *testing.T) {
	prog := mustParse(t, `int f(int a) { return a > 0 ? a : -a; }`)
	e := prog.Funcs[0].Body.List[0].Expr
	if e.Kind != ECond || e.Cond == nil || e.L == nil || e.R == nil {
		t.Fatalf("ternary shape wrong: %+v", e)
	}
	if e.Cond.Op != ">" {
		t.Errorf("cond op = %q", e.Cond.Op)
	}
	// Right-associativity: a ? b : c ? d : e.
	prog = mustParse(t, `int f(int a) { return a ? 1 : a ? 2 : 3; }`)
	e = prog.Funcs[0].Body.List[0].Expr
	if e.Kind != ECond || e.R.Kind != ECond {
		t.Error("ternary should be right-associative")
	}
}

func TestParseSwitchShape(t *testing.T) {
	prog := mustParse(t, `
int f(int x) {
	switch (x + 1) {
	case 1: x = 10; break;
	case 2:
	default: x = 20;
	}
	return x;
}`)
	sw := prog.Funcs[0].Body.List[0]
	if sw.Kind != SSwitch {
		t.Fatalf("kind = %d", sw.Kind)
	}
	kinds := []StmtKind{SCase, SExpr, SBreak, SCase, SDefault, SExpr}
	if len(sw.List) != len(kinds) {
		t.Fatalf("switch body has %d items: %+v", len(sw.List), sw.List)
	}
	for i, k := range kinds {
		if sw.List[i].Kind != k {
			t.Errorf("item %d kind = %d, want %d", i, sw.List[i].Kind, k)
		}
	}
}

func TestParseStructShape(t *testing.T) {
	prog := mustParse(t, `
struct Pt { int x; int y; char tag[3]; };
struct Pt g;
int f(struct Pt* p) { return p->x + g.y; }`)
	if len(prog.Globals) != 1 || prog.Globals[0].Sym.Type.Kind != TStruct {
		t.Fatalf("globals = %+v", prog.Globals)
	}
	st := prog.Globals[0].Sym.Type
	if st.Tag != "Pt" || len(st.Fields) != 3 {
		t.Fatalf("struct = %+v", st)
	}
	if st.Fields[0].Offset != 0 || st.Fields[1].Offset != 4 || st.Fields[2].Offset != 8 {
		t.Errorf("offsets = %d %d %d", st.Fields[0].Offset, st.Fields[1].Offset, st.Fields[2].Offset)
	}
	if st.Size() != 12 { // 4+4+3 padded to 12
		t.Errorf("size = %d", st.Size())
	}
	ret := prog.Funcs[0].Body.List[0].Expr
	if ret.L.Kind != EMember || ret.L.Op != "->" || ret.R.Kind != EMember || ret.R.Op != "." {
		t.Errorf("member access shape wrong: %+v", ret)
	}
}

func TestStructNominalTyping(t *testing.T) {
	// Two structs with identical fields are distinct types.
	_, err := analyze(t, `
struct A { int x; };
struct B { int x; };
int f(struct A* a, struct B* b) { a = b; return 0; }`)
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("nominal typing not enforced: %v", err)
	}
}

func TestStructMemberTyping(t *testing.T) {
	prog := mustAnalyze(t, `
struct S { int n; char c; int* p; };
struct S s;
int f(void) { return s.n + s.c + *s.p; }`)
	add := prog.Funcs[0].Body.List[0].Expr
	// s.n + s.c -> int; the member types must have resolved.
	if add.Type.Kind != TInt {
		t.Errorf("member expression type = %s", add.Type)
	}
}

func TestSizeofStructAndPointers(t *testing.T) {
	prog := mustAnalyze(t, `
struct S { char a; int b; };
int x = sizeof(struct S);
int y = sizeof(struct S*);
int z = sizeof(struct S[3]);`)
	if prog.Globals[0].Init.Val != 8 {
		t.Errorf("sizeof(struct S) = %d", prog.Globals[0].Init.Val)
	}
	if prog.Globals[1].Init.Val != 4 {
		t.Errorf("sizeof(struct S*) = %d", prog.Globals[1].Init.Val)
	}
	if prog.Globals[2].Init.Val != 24 {
		t.Errorf("sizeof(struct S[3]) = %d", prog.Globals[2].Init.Val)
	}
}

func TestConstFoldTernaryAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"int x = 1 ? 7 : 8;", 7},
		{"int x = 0 ? 7 : 8;", 8},
		{"int x = 1 && 2;", 1},
		{"int x = 1 && 0;", 0},
		{"int x = 0 || 0;", 0},
		{"int x = 0 || 5;", 1},
		{"int x = (2 > 1) ? (3 << 2) : 0;", 12},
	}
	for _, c := range cases {
		prog := mustAnalyze(t, c.src)
		if got := prog.Globals[0].Init.Val; got != c.want {
			t.Errorf("%s => %d, want %d", c.src, got, c.want)
		}
	}
}

func TestLowerMemberFoldsLocalOffsets(t *testing.T) {
	m := compile(t, `
struct S { int a; int b; };
int main(void) {
	struct S s;
	s.b = 5;
	return s.b;
}`)
	dump := dumpTrees(m, m.Function("main"))
	// s.b should fold to a single frame offset, not ADDI(addr, 4).
	if strings.Contains(dump, "ADDI(ADDRLP") {
		t.Errorf("local member offset not folded:\n%s", dump)
	}
}
