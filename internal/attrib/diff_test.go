package attrib

import (
	"strings"
	"testing"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/wire"
	"repro/internal/workload"
)

const diffBase = `
int sum(int a, int b) { return a + b; }
int main(void) {
	putint(sum(1, 2));
	return 0;
}
`

// diffGrown is diffBase plus a function stuffed with distinct 32-bit
// constants, so the CNSTI literal stream is the dominant growth.
const diffGrown = `
int sum(int a, int b) { return a + b; }
int noise(void) {
	int s = 0;
	s += 100001; s += 200003; s += 300007; s += 400009;
	s += 500011; s += 600013; s += 700019; s += 800023;
	s += 900029; s += 1000031; s += 1100033; s += 1200037;
	return s;
}
int main(void) {
	putint(sum(1, 2));
	putint(noise());
	return 0;
}
`

func wireArtifact(t *testing.T, name, src string) []byte {
	t.Helper()
	mod, err := cc.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.Compress(mod)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// report attributes an artifact through Analyze.
func report(t *testing.T, source string, data []byte) *Report {
	t.Helper()
	a, err := Analyze(source, data)
	if err != nil {
		t.Fatal(err)
	}
	return a.Report
}

// TestDiffStreamGrown: growing one literal stream must surface that
// stream at the top of the ranked delta output.
func TestDiffStreamGrown(t *testing.T) {
	oldRep := report(t, "base", wireArtifact(t, "base", diffBase))
	newRep := report(t, "grown", wireArtifact(t, "grown", diffGrown))
	d, err := Diff(oldRep, newRep)
	if err != nil {
		t.Fatal(err)
	}
	if d.NewTotal <= d.OldTotal {
		t.Fatalf("grown artifact not larger: %d vs %d", d.NewTotal, d.OldTotal)
	}
	// Ranked: |delta| non-increasing.
	for i := 1; i < len(d.Streams); i++ {
		if abs(d.Streams[i].D()) > abs(d.Streams[i-1].D()) {
			t.Fatalf("stream deltas not ranked: %+v before %+v", d.Streams[i-1], d.Streams[i])
		}
	}
	// The distinct-constant stream must have grown, and be the top
	// literal-stream mover.
	var cnsti *Delta
	for i := range d.Streams {
		if d.Streams[i].Name == "CNSTI" {
			cnsti = &d.Streams[i]
			break
		}
	}
	if cnsti == nil || cnsti.D() <= 0 {
		t.Fatalf("CNSTI stream did not grow: %+v", cnsti)
	}
	for _, s := range d.Streams {
		if s.Name == "CNSTI" {
			break
		}
		if s.Name != "shape" && abs(s.D()) > 0 && s.D() > cnsti.D() {
			t.Fatalf("literal stream %s outranks the grown CNSTI stream", s.Name)
		}
	}
	var out strings.Builder
	FormatDiff(&out, d)
	if !strings.Contains(out.String(), "CNSTI") {
		t.Errorf("diff output does not mention the grown stream:\n%s", out.String())
	}
}

// TestDiffDictDropped: compressing the same program with pattern
// learning disabled must report the old artifact's learned entries as
// dropped, ranked and rendered.
func TestDiffDictDropped(t *testing.T) {
	mod, err := cc.Compile("sieve", workload.Kernels()["sieve"])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := brisc.Compress(prog, brisc.Options{NoCombine: true, NoSpecialize: true, NoEPI: true})
	if err != nil {
		t.Fatal(err)
	}
	oldRep := report(t, "full", full.Bytes())
	newRep := report(t, "bare", bare.Bytes())
	if len(learnedDict(oldRep.Dict)) == 0 {
		t.Skip("no patterns adopted on this input")
	}
	d, err := Diff(oldRep, newRep)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DictDropped) == 0 {
		t.Fatal("no dropped dictionary entries reported")
	}
	for i := 1; i < len(d.DictDropped); i++ {
		a := d.DictDropped[i-1].StreamBytes + d.DictDropped[i-1].EntryBytes
		b := d.DictDropped[i].StreamBytes + d.DictDropped[i].EntryBytes
		if b > a {
			t.Fatal("dropped entries not ranked by bytes")
		}
	}
	var out strings.Builder
	FormatDiff(&out, d)
	if !strings.Contains(out.String(), "dict dropped:") {
		t.Errorf("diff output missing dropped entries:\n%s", out.String())
	}
}

// TestDiffKindMismatch: wire-vs-brisc diffs are refused.
func TestDiffKindMismatch(t *testing.T) {
	w := report(t, "w", wireArtifact(t, "w", diffBase))
	mod, _ := cc.Compile("b", diffBase)
	prog, _ := codegen.Generate(mod, codegen.Options{})
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := report(t, "b", obj.Bytes())
	if _, err := Diff(w, b); err == nil {
		t.Fatal("diffing mismatched kinds succeeded")
	}
}
