package brisc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/native"
	"repro/internal/vm"
	"repro/internal/workload"
)

func compileProg(t testing.TB, name, src string) *vm.Program {
	t.Helper()
	mod, err := cc.Compile(name, src)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return prog
}

func runVM(t testing.TB, p *vm.Program) (int32, string) {
	t.Helper()
	var out bytes.Buffer
	m := vm.NewMachine(p, 1<<20, &out)
	code, err := m.Run(200_000_000)
	if err != nil {
		t.Fatalf("vm run: %v", err)
	}
	return code, out.String()
}

const saltSrc = `
int calls;
int pepper(int a, int b) { calls++; return a + b; }
int salt(int j, int i) {
	if (j > 0) {
		pepper(i, j);
		j--;
	}
	return j;
}
int main(void) {
	putint(salt(3, 9));
	putint(salt(0, 9));
	putint(calls);
	return 0;
}`

func TestObjectSerializationRoundTrip(t *testing.T) {
	prog := compileProg(t, "t", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := obj.Bytes()
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Error("serialization is not idempotent")
	}
	// The parsed object must behave identically.
	var o1, o2 bytes.Buffer
	c1, err := NewInterp(obj, 1<<20, &o1).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewInterp(back, 1<<20, &o2).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || o1.String() != o2.String() {
		t.Error("parsed object behaves differently")
	}
}

func TestParseCorrupt(t *testing.T) {
	prog := compileProg(t, "t", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := obj.Bytes()
	if _, err := Parse(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := Parse([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	for cut := 4; cut < len(good); cut += 11 {
		if _, err := Parse(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for i := 4; i < len(good); i += 3 {
		b := append([]byte(nil), good...)
		b[i] ^= 0x3C
		_, _ = Parse(b) // must not panic; errors expected
	}
}

func TestEPIPeephole(t *testing.T) {
	prog := compileProg(t, "t", saltSrc)
	pp := peepholeEPI(prog)
	var epis, rjrs int
	for _, ins := range pp.Code {
		switch ins.Op {
		case vm.EPI:
			epis++
		case vm.RJR:
			rjrs++
		}
	}
	if epis == 0 {
		t.Error("no EPI macro instructions created")
	}
	if rjrs != 0 {
		t.Errorf("%d RJR instructions survived the peephole", rjrs)
	}
	// Behaviour preserved.
	wantCode, wantOut := runVM(t, prog)
	gotCode, gotOut := runVM(t, pp)
	if gotCode != wantCode || gotOut != wantOut {
		t.Error("peephole changed behaviour")
	}
	if len(pp.Code) >= len(prog.Code) {
		t.Errorf("peephole did not shrink code: %d -> %d", len(prog.Code), len(pp.Code))
	}
}

func TestDictionaryGrowth(t *testing.T) {
	src := workload.Generate(workload.Quick)
	prog := compileProg(t, "t", src)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := obj.Size()
	if sb.NumPatterns == 0 {
		t.Error("compressor learned no patterns")
	}
	if obj.Passes < 1 {
		t.Error("no passes recorded")
	}
	// Learned patterns include specializations (fixed fields) and
	// combinations (multi-instruction sequences).
	var specs, combos int
	for _, p := range obj.Dict[vm.NumOpcodes:] {
		if len(p.Seq) > 1 {
			combos++
		}
		for _, pi := range p.Seq {
			for _, fx := range pi.Fixed {
				if fx {
					specs++
				}
			}
		}
	}
	if specs == 0 {
		t.Error("no operand specializations learned")
	}
	if combos == 0 {
		t.Error("no opcode combinations learned")
	}
	t.Logf("dictionary: %d learned patterns (%d combined), %d passes",
		sb.NumPatterns, combos, obj.Passes)
}

// TestCompressionRatio reproduces the headline size claim: BRISC is
// roughly half of native (x86-like) code size and competitive with
// gzipped native code, while remaining interpretable in place.
func TestCompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := workload.Generate(workload.Wep)
	prog := compileProg(t, "wep", src)
	nativeBytes := native.EncodeVariable(prog.Code)
	gz := flatezip.Compress(nativeBytes)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := obj.Size()
	ratio := float64(sb.CodeSize()) / float64(len(nativeBytes))
	gzRatio := float64(len(gz)) / float64(len(nativeBytes))
	t.Logf("native=%d gzip=%d brisc=%d (code=%d dict=%d tables=%d blocks=%d) ratio=%.2f gzip-ratio=%.2f",
		len(nativeBytes), len(gz), sb.CodeSize(), sb.CodeBytes, sb.DictBytes,
		sb.TableBytes, sb.BlockBytes, ratio, gzRatio)
	if ratio >= 1.0 {
		t.Errorf("BRISC (%.2f) failed to compress relative to native", ratio)
	}
	if ratio > 0.85 {
		t.Errorf("BRISC ratio %.2f; paper reports ~0.5, expected < 0.85", ratio)
	}
	// "roughly the same size as gzipped x86 programs": within 2x of gzip.
	if float64(sb.CodeSize()) > 2.0*float64(len(gz)) {
		t.Errorf("BRISC %d more than 2x gzipped native %d", sb.CodeSize(), len(gz))
	}
}

func TestSpecializationHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := workload.Generate(workload.Quick)
	prog := compileProg(t, "t", src)
	full, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Compress(prog, Options{NoSpecialize: true, NoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Size().CodeSize() >= bare.Size().CodeSize() {
		t.Errorf("dictionary learning did not help: %d vs %d",
			full.Size().CodeSize(), bare.Size().CodeSize())
	}
}

func TestPatternString(t *testing.T) {
	p := basePattern(vm.LDW)
	if got := p.String(); got != "[ld.iw *,*,*]" {
		t.Errorf("base pattern = %q", got)
	}
	sp := specialize(p, 0, 2, int32(vm.RegSP))
	sp = specialize(sp, 0, 1, 4)
	if got := sp.String(); got != "[ld.iw *,4,sp]" {
		t.Errorf("specialized = %q", got)
	}
	c := combine(sp, basePattern(vm.MOV))
	if !strings.HasPrefix(c.String(), "<[ld.iw *,4,sp],[mov.i") {
		t.Errorf("combined = %q", c.String())
	}
}

func TestFieldAccessors(t *testing.T) {
	ins := vm.Instr{Op: vm.LDW, Rd: 3, Rs1: vm.RegSP, Imm: 8}
	if getField(ins, 0) != 3 || getField(ins, 1) != 8 || getField(ins, 2) != int32(vm.RegSP) {
		t.Errorf("getField LDW: %d %d %d", getField(ins, 0), getField(ins, 1), getField(ins, 2))
	}
	setField(&ins, 0, 5)
	setField(&ins, 1, -4)
	if ins.Rd != 5 || ins.Imm != -4 {
		t.Errorf("setField: %+v", ins)
	}
	br := vm.Instr{Op: vm.BLEI, Rs1: 4, Imm: 0, Target: 56}
	if getField(br, 0) != 4 || getField(br, 1) != 0 || getField(br, 2) != 56 {
		t.Error("getField BLEI wrong")
	}
	// Round trip through every opcode's fields.
	for op := vm.Opcode(1); int(op) < vm.NumOpcodes; op++ {
		ins := vm.Instr{Op: op}
		for fi, f := range op.Fields() {
			var v int32 = 7
			if f == vm.FReg {
				v = int32(fi + 1)
			} else {
				v = int32(100 + fi)
			}
			setField(&ins, fi, v)
			if got := getField(ins, fi); got != v {
				t.Errorf("%s field %d: set %d, got %d", op.Name(), fi, v, got)
			}
		}
	}
}

func TestNibbleValueWidths(t *testing.T) {
	cases := []struct {
		v    int32
		want int
	}{
		{0, 0}, {1, 1}, {7, 1}, {-8, 1}, {8, 2}, {-9, 2},
		{127, 2}, {128, 3}, {-2048, 3}, {-2049, 4},
		{1 << 20, 6}, {-(1 << 30), 8}, {1<<31 - 1, 8},
	}
	for _, c := range cases {
		if got := nibblesForValue(c.v); got != c.want {
			t.Errorf("nibblesForValue(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestMatchesAndExtract(t *testing.T) {
	p := basePattern(vm.ADDI)
	sp := specialize(p, 0, 2, 4) // addi.i *,*,4
	yes := vm.Instr{Op: vm.ADDI, Rd: 1, Rs1: 2, Imm: 4}
	no := vm.Instr{Op: vm.ADDI, Rd: 1, Rs1: 2, Imm: 5}
	if !sp.matches([]vm.Instr{yes}) {
		t.Error("should match")
	}
	if sp.matches([]vm.Instr{no}) {
		t.Error("should not match")
	}
	vals := sp.extract([]vm.Instr{yes})
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("extract = %v", vals)
	}
	// The decode plan rebuilds the instruction from the same values.
	pl := compilePlans([]Pattern{sp})[0]
	if len(pl.slots) != len(vals) {
		t.Fatalf("plan has %d operand slots, extract gave %d values", len(pl.slots), len(vals))
	}
	back := append([]vm.Instr(nil), pl.tmpl...)
	for i, s := range pl.slots {
		putOperand(&back[s.instr], s.field, vals[i])
	}
	if back[0] != yes {
		t.Errorf("decode plan = %+v, want %+v", back[0], yes)
	}
}

func TestInterpWorkingState(t *testing.T) {
	prog := compileProg(t, "t", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 1<<20, nil)
	if _, err := it.Run(0); err != nil {
		t.Fatal(err)
	}
	if it.Units == 0 || it.Steps < it.Units {
		t.Errorf("counters: units=%d steps=%d", it.Units, it.Steps)
	}
	// Units <= Steps strictly when combination merged instructions.
	if it.Steps == it.Units {
		t.Log("no combined units executed (acceptable for tiny programs)")
	}
	// Reset and rerun gives identical results.
	it.Reset()
	code2, err := it.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code2 != 0 {
		t.Errorf("exit after reset = %d", code2)
	}
}

func TestInterpStepLimit(t *testing.T) {
	prog := compileProg(t, "t", `int main(void) { while (1) {} return 0; }`)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 1<<20, nil)
	if _, err := it.Run(1000); err == nil {
		t.Error("expected step-limit error")
	}
}

func BenchmarkCompressWep(b *testing.B) {
	b.ReportAllocs()
	src := workload.Generate(workload.Wep)
	prog := compileProg(b, "wep", src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJIT(b *testing.B) {
	b.ReportAllocs()
	src := workload.Generate(workload.Wep)
	prog := compileProg(b, "wep", src)
	obj, err := Compress(prog, Options{})
	if err != nil {
		b.Fatal(err)
	}
	jp, err := JIT(obj)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(native.VariableSize(jp.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JIT(obj); err != nil {
			b.Fatal(err)
		}
	}
}
