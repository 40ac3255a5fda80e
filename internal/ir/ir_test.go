package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// saltSrc is the first tree of the paper's salt() example.
const saltSrc = "ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))"

// parseOne parses src as the only tree of a function in an otherwise
// empty module whose symbol table holds syms.
func parseOne(src string, syms ...string) (*Module, *Function, error) {
	f := &Function{Name: "f"}
	m := &Module{Functions: []*Function{f}, Syms: syms}
	return m, f, m.AppendTree(f, src)
}

func TestStringMatchesPaperForm(t *testing.T) {
	m, f, err := parseOne(saltSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TreeString(f, 0); got != saltSrc {
		t.Errorf("TreeString = %s, want %s", got, saltSrc)
	}
}

func TestConstSelectsWidth(t *testing.T) {
	cases := []struct {
		v    int32
		want Op
	}{
		{0, CNSTC}, {127, CNSTC}, {-128, CNSTC},
		{128, CNSTS}, {-129, CNSTS}, {32767, CNSTS},
		{32768, CNSTI}, {-40000, CNSTI}, {1 << 30, CNSTI},
	}
	for _, c := range cases {
		if got := Const(c.v).Op; got != c.want {
			t.Errorf("Const(%d).Op = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestLocalAddrSelectsWidth(t *testing.T) {
	if LocalAddr(72).Op != ADDRLP8 {
		t.Error("LocalAddr(72) should be ADDRLP8")
	}
	if LocalAddr(300).Op != ADDRLP {
		t.Error("LocalAddr(300) should be ADDRLP")
	}
	if ParamAddr(4).Op != ADDRFP8 {
		t.Error("ParamAddr(4) should be ADDRFP8")
	}
}

// TestShapeAndLiterals: a tree's nodes are its shape, the wire
// format's operator pattern, in prefix order, with each literal on its
// node.
func TestShapeAndLiterals(t *testing.T) {
	_, f, err := parseOne(saltSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Op: ASGNI}, {Op: ADDRLP8, Lit: 72}, {Op: SUBI}, {Op: INDIRI},
		{Op: ADDRLP8, Lit: 72}, {Op: CNSTC, Lit: 1},
	}
	if got := f.Tree(0); !slices.Equal(got, want) {
		t.Errorf("nodes = %+v, want %+v", got, want)
	}
}

// TestValidateRejectsMalformedTrees: Validate accepts only node arrays
// that are exactly the trees Roots names, each one well-formed.
func TestValidateRejectsMalformedTrees(t *testing.T) {
	for name, f := range map[string]*Function{
		"cut short":      {Nodes: []Node{{Op: ASGNI}, {Op: CNSTC}}, Roots: []int32{0}},
		"invalid op":     {Nodes: []Node{{Op: Op(200)}}, Roots: []int32{0}},
		"trailing nodes": {Nodes: []Node{{Op: RETV}, {Op: RETV}}, Roots: []int32{0}},
		"root mid-tree":  {Nodes: []Node{{Op: RETI}, {Op: CNSTC}}, Roots: []int32{0, 1}},
		"unknown symbol": {Nodes: []Node{{Op: CALLV}, {Op: ADDRGP, Lit: 7}}, Roots: []int32{0}},
	} {
		f.Name = "f"
		m := &Module{Functions: []*Function{f}, Syms: []string{"f"}}
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))",
		"LEI[1](INDIRI(ADDRLP8[68]),CNSTC[0])",
		"ARGI(INDIRI(ADDRLP8[72]))",
		"CALLI(ADDRGP[pepper])",
		"LABELV[1]",
		"RETI(INDIRI(ADDRLP8[68]))",
		"JUMPV[7]",
		"RETV",
		"CNSTI[2147483647]", "CNSTI[-2147483648]", // a literal is 32 bits (see TestParseErrors)
	}
	for _, in := range inputs {
		m, f, err := parseOne(in, "pepper")
		if err != nil {
			t.Fatalf("AppendTree(%q): %v", in, err)
		}
		if got := m.TreeString(f, 0); got != in {
			t.Errorf("round trip: %q -> %q", in, got)
		}
	}
}

func TestParseWithSpaces(t *testing.T) {
	m, f, err := parseOne("ASGNI( ADDRLP8[72] , CNSTC[1] )")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TreeString(f, 0); got != "ASGNI(ADDRLP8[72],CNSTC[1])" {
		t.Errorf("got %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "FOO[1]", "ASGNI(CNSTC[1])", "CNSTC", "CNSTC[x]",
		"ADDRGP[]", "ASGNI(CNSTC[1],CNSTC[2]", "CNSTC[1]extra",
		"ASGNI(CNSTC[1];CNSTC[2])", "LABELV[9", "ADDRGP[ghost]",
		"CNSTI[2147483648]", "CNSTI[-2147483649]", "LABELV[4294967296]",
	}
	for _, in := range bad {
		if _, f, err := parseOne(in); err == nil || len(f.Nodes) != 0 || len(f.Roots) != 0 {
			t.Errorf("AppendTree(%q) = %v, %d nodes, %d roots; want an error and no change", in, err, len(f.Nodes), len(f.Roots))
		}
	}
}

// TestNodeSize pins the node at 8 bytes, an op and a 32-bit literal: a
// wire load fills one node per operator, so a wider node is a
// deliberate cost, not a drive-by change.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 8", got)
	}
}

func TestOpByName(t *testing.T) {
	for op := Op(1); op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%s) = %v, %v", op, got, ok)
		}
	}
	if _, ok := OpByName("NOPE"); ok {
		t.Error("unknown name resolved")
	}
}

func TestOpMetadata(t *testing.T) {
	if ASGNI.Arity() != 2 || INDIRI.Arity() != 1 || CNSTC.Arity() != 0 {
		t.Error("arity table wrong")
	}
	if CNSTC.Lit() != LitInt || ADDRGP.Lit() != LitName || ASGNI.Lit() != LitNone {
		t.Error("literal-kind table wrong")
	}
	if !LEI.IsBranch() || ASGNI.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if Op(250).Valid() || OpInvalid.Valid() {
		t.Error("Valid wrong")
	}
}

// sampleModule builds a module from trees in the textual form; it
// fails the test on a parse error.
func sampleModule(t *testing.T) *Module {
	t.Helper()
	f := &Function{Name: "salt", NumParams: 2, FrameSize: 80}
	p := &Function{Name: "pepper", NumParams: 2}
	m := &Module{Name: "m", Functions: []*Function{f, p}}
	m.IndexSymbols()
	appendTrees(t, m, f,
		"ASGNI(ADDRLP8[72],INDIRI(ADDRFP8[0]))",
		"LEI[1](INDIRI(ADDRLP8[68]),CNSTC[0])",
		"ARGI(INDIRI(ADDRLP8[72]))",
		"CALLV(ADDRGP[pepper])",
		"LABELV[1]",
		"RETI(INDIRI(ADDRLP8[68]))")
	appendTrees(t, m, p, "RETV")
	return m
}

func appendTrees(t *testing.T, m *Module, f *Function, srcs ...string) {
	t.Helper()
	for _, src := range srcs {
		if err := m.AppendTree(f, src); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModuleValidate(t *testing.T) {
	m := sampleModule(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Function("salt") == nil || m.Function("nope") != nil {
		t.Error("Function lookup wrong")
	}
	if m.NumTrees() != 7 {
		t.Errorf("NumTrees = %d, want 7", m.NumTrees())
	}
}

func TestModuleValidateCatchesBadLabels(t *testing.T) {
	m := sampleModule(t)
	// Branch to an undefined label.
	appendTrees(t, m, m.Functions[0], "JUMPV[99]")
	if err := m.Validate(); err == nil {
		t.Error("undefined label not caught")
	}

	m = sampleModule(t)
	appendTrees(t, m, m.Functions[0], "LABELV[1]")
	if err := m.Validate(); err == nil {
		t.Error("duplicate label not caught")
	}

	m = sampleModule(t)
	f := m.Functions[0]
	f.Roots = append(f.Roots, int32(len(f.Nodes)))
	f.Nodes = append(f.Nodes, Node{Op: CALLV}, Node{Op: ADDRGP, Lit: int32(len(m.Syms))})
	if err := m.Validate(); err == nil {
		t.Error("unknown symbol not caught")
	}

	m = sampleModule(t)
	m.Functions = append(m.Functions, &Function{Name: "salt"})
	if err := m.Validate(); err == nil {
		t.Error("duplicate function not caught")
	}

	m = sampleModule(t)
	m.Syms[0], m.Syms[1] = m.Syms[1], m.Syms[0]
	if err := m.Validate(); err == nil {
		t.Error("misnumbered symbol table not caught")
	}
}

func TestModuleString(t *testing.T) {
	s := sampleModule(t).String()
	for _, want := range []string{"func salt params 2 frame 80", "CALLV(ADDRGP[pepper])", "LABELV[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("module dump missing %q:\n%s", want, s)
		}
	}
}

// randomTree writes a random well-formed tree in the textual form.
func randomTree(sb *strings.Builder, rng *rand.Rand, depth int) {
	if depth <= 0 {
		leaves := []Op{CNSTC, CNSTS, CNSTI, ADDRLP8, ADDRFP8}
		fmt.Fprintf(sb, "%s[%d]", leaves[rng.Intn(len(leaves))], rng.Intn(100))
		return
	}
	ops := []Op{ADDI, SUBI, MULI, BANDI, INDIRI, NEGI, CVCI}
	op := ops[rng.Intn(len(ops))]
	sb.WriteString(op.String() + "(")
	for i := 0; i < op.Arity(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		randomTree(sb, rng, depth-1)
	}
	sb.WriteByte(')')
}

// TestQuickParsePrintRoundTrip: parsing and printing any tree is the
// identity, and the parsed nodes form one valid tree.
func TestQuickParsePrintRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		randomTree(&sb, rng, rng.Intn(6))
		m, fn, err := parseOne(sb.String())
		m.IndexSymbols()
		return err == nil && m.TreeString(fn, 0) == sb.String() && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
