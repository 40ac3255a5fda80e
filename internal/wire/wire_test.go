package wire

import (
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/ir"
	"repro/internal/native"
	"repro/internal/workload"
)

func compileMod(t testing.TB, name, src string) *ir.Module {
	t.Helper()
	m, err := cc.Compile(name, src)
	if err != nil {
		t.Fatalf("cc.Compile: %v", err)
	}
	return m
}

func modulesEqual(a, b *ir.Module) bool {
	if a.Name != b.Name || len(a.Globals) != len(b.Globals) ||
		len(a.Functions) != len(b.Functions) || len(a.Externs) != len(b.Externs) ||
		!slices.Equal(a.Syms, b.Syms) {
		return false
	}
	for i := range a.Externs {
		if a.Externs[i] != b.Externs[i] {
			return false
		}
	}
	for i := range a.Globals {
		ga, gb := a.Globals[i], b.Globals[i]
		if ga.Name != gb.Name || ga.Size != gb.Size || string(ga.Init) != string(gb.Init) {
			return false
		}
	}
	for i := range a.Functions {
		fa, fb := a.Functions[i], b.Functions[i]
		if fa.Name != fb.Name || fa.NumParams != fb.NumParams ||
			fa.FrameSize != fb.FrameSize || !slices.Equal(fa.Roots, fb.Roots) ||
			!slices.Equal(fa.Nodes, fb.Nodes) {
			return false
		}
	}
	return true
}

const saltSrc = `
int pepper(int a, int b) { return a + b; }
int salt(int j, int i) {
	if (j > 0) {
		pepper(i, j);
		j--;
	}
	return j;
}
int main(void) { return salt(3, 4); }
`

func TestRoundTripSalt(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	data, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !modulesEqual(m, back) {
		t.Errorf("module round trip mismatch:\noriginal:\n%s\nreconstructed:\n%s", m, back)
	}
}

func TestRoundTripAllOptions(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	opts := []Options{
		{},
		{NoMTF: true},
		{NoHuffman: true},
		{NoMTF: true, NoHuffman: true},
		{Final: FinalArith},
		{Final: FinalNone},
		{NoMTF: true, Final: FinalArith},
		{NoHuffman: true, Final: FinalNone},
	}
	for _, opt := range opts {
		data, err := CompressOpts(m, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		back, err := Decompress(data)
		if err != nil {
			t.Fatalf("%+v: decompress: %v", opt, err)
		}
		if !modulesEqual(m, back) {
			t.Errorf("%+v: round trip mismatch", opt)
		}
	}
}

func TestRoundTripWorkload(t *testing.T) {
	src := workload.Generate(workload.Quick)
	m := compileMod(t, "quick", src)
	data, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !modulesEqual(m, back) {
		t.Error("workload module round trip mismatch")
	}
}

// TestCompressionFactor reproduces the shape of the paper's wire table:
// the wire format must beat both the conventional (SPARC-like fixed)
// encoding and its gzipped form on a realistically sized program.
func TestCompressionFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := workload.Generate(workload.Wep)
	m := compileMod(t, "wep", src)
	prog, err := codegen.Generate(m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conventional := native.EncodeFixed(prog.Code)
	gzipped := flatezip.Compress(conventional)
	wireObj, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}

	factor := float64(len(conventional)) / float64(len(wireObj))
	t.Logf("conventional=%d gzipped=%d wire=%d factor=%.2f",
		len(conventional), len(gzipped), len(wireObj), factor)
	if len(wireObj) >= len(gzipped) {
		t.Errorf("wire (%d) should beat gzipped conventional (%d)", len(wireObj), len(gzipped))
	}
	if factor < 3.0 {
		t.Errorf("compression factor %.2f; paper reports ~4.9, expect at least 3", factor)
	}
}

func TestMeasureStats(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	st, _, err := MeasureTraced(m, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trees == 0 || st.Shapes == 0 || st.Shapes > st.Trees {
		t.Errorf("stats: %+v", st)
	}
	if st.ContainerBytes <= 0 || st.FinalBytes <= 0 {
		t.Errorf("sizes: %+v", st)
	}
	if st.MetadataBytes+st.OperatorBytes+st.LiteralBytes != st.ContainerBytes {
		t.Errorf("stage sizes do not sum: %+v", st)
	}
}

func TestMTFHelpsOnRealCode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The paper's rationale: locality in literal streams makes MTF
	// indices compress better than raw values.
	src := workload.Generate(workload.Wep)
	m := compileMod(t, "wep", src)
	with, err := CompressOpts(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := CompressOpts(m, Options{NoMTF: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with MTF: %d, without: %d", len(with), len(without))
	// MTF should not hurt by more than a few percent; typically it helps.
	if float64(len(with)) > 1.1*float64(len(without)) {
		t.Errorf("MTF hurt badly: %d vs %d", len(with), len(without))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	good, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Decompress([]byte("WIR1xxxx")); err == nil {
		t.Error("bad magic accepted")
	}
	bad := append([]byte(nil), good...)
	bad[4] = 0x0F // invalid final coder
	if _, err := Decompress(bad); err == nil {
		t.Error("bad options byte accepted")
	}
	for cut := 5; cut < len(good); cut += 7 {
		if _, err := Decompress(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bit flips in the payload must never panic; errors are expected
	// but a lucky flip may still parse.
	for i := 5; i < len(good); i++ {
		b := append([]byte(nil), good...)
		b[i] ^= 0xA5
		_, _ = Decompress(b)
	}
}

func TestEmptyishModule(t *testing.T) {
	m := compileMod(t, "tiny", `int main(void) { return 0; }`)
	data, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !modulesEqual(m, back) {
		t.Error("tiny module mismatch")
	}
}

func TestGlobalsSurvive(t *testing.T) {
	m := compileMod(t, "globals", `
int x = -123456;
char msg[12] = "hi there";
int arr[50];
int main(void) { return x + arr[0] + msg[0]; }
`)
	data, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !modulesEqual(m, back) {
		t.Error("globals round trip mismatch")
	}
}

func BenchmarkCompressWep(b *testing.B) {
	b.ReportAllocs()
	src := workload.Generate(workload.Wep)
	m := compileMod(b, "wep", src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressWep(b *testing.B) {
	b.ReportAllocs()
	src := workload.Generate(workload.Wep)
	m := compileMod(b, "wep", src)
	data, err := Compress(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(data); err != nil {
			b.Fatal(err)
		}
	}
}
