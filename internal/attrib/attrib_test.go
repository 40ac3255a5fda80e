package attrib

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/workload"
)

// exampleSources returns every example module plus one corpus-scale
// workload, so the acceptance sweep covers both toy and realistic
// stream shapes.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{"wep": workload.Generate(workload.Wep)}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example modules found: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(src)
	}
	return srcs
}

func buildArtifacts(t *testing.T, name, src string) (wireData, briscData []byte) {
	t.Helper()
	mod, err := cc.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: cc.Compile: %v", name, err)
	}
	wireData, err = wire.Compress(mod)
	if err != nil {
		t.Fatalf("%s: wire.Compress: %v", name, err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatalf("%s: codegen: %v", name, err)
	}
	obj, err := brisc.Compress(prog, brisc.Options{})
	if err != nil {
		t.Fatalf("%s: brisc.Compress: %v", name, err)
	}
	return wireData, obj.Bytes()
}

// TestFullAccounting is the acceptance criterion: on every example
// module (and a corpus-scale workload), the attribution accounts for
// 100% of the bytes of both the WIR2 container and the BRISC image —
// Check passes and the per-class sums reproduce the total exactly.
func TestFullAccounting(t *testing.T) {
	for name, src := range exampleSources(t) {
		wireData, briscData := buildArtifacts(t, name, src)
		for _, tc := range []struct {
			kind string
			data []byte
		}{{KindWire, wireData}, {KindBrisc, briscData}} {
			art, err := Analyze(name, tc.data)
			if err != nil {
				t.Fatalf("%s/%s: Analyze: %v", name, tc.kind, err)
			}
			r := art.Report
			if r.Kind != tc.kind {
				t.Fatalf("%s: kind %s, want %s", name, r.Kind, tc.kind)
			}
			if err := r.Check(); err != nil {
				t.Errorf("%s/%s: %v", name, tc.kind, err)
			}
			_, sums := r.ByClass()
			total := 0
			for _, b := range sums {
				total += b
			}
			if total != r.TotalBytes {
				t.Errorf("%s/%s: class sums %d, artifact %d bytes", name, tc.kind, total, r.TotalBytes)
			}
			// Entropy sanity: conditioning never increases entropy.
			for _, st := range r.Streams {
				if st.H1Bits > st.H0Bits+1e-6 {
					t.Errorf("%s/%s: stream %s H1 %f > H0 %f", name, tc.kind, st.Name, st.H1Bits, st.H0Bits)
				}
			}
			// The human table must render without panicking and
			// mention the artifact.
			var out strings.Builder
			Format(&out, r)
			if !strings.Contains(out.String(), name) {
				t.Errorf("%s/%s: report does not name its source", name, tc.kind)
			}
		}
	}
}

// TestWireFuncBitsExact: per-function attribution must consume every
// stream symbol exactly once — the summed function bits equal the
// summed stream payload bits plus the first-occurrence value bytes.
func TestWireFuncBitsExact(t *testing.T) {
	for name, src := range exampleSources(t) {
		wireData, _ := buildArtifacts(t, name, src)
		art, err := Analyze(name, wireData)
		if err != nil {
			t.Fatal(err)
		}
		var funcBits int64
		for _, f := range art.Report.Funcs {
			funcBits += f.Bits
		}
		var streamBits int64
		for _, st := range art.Wire.Streams {
			streamBits += st.PayloadBits
			streamBits += int64(st.FirstsBytes-uvarintLen(uint64(len(st.Firsts)))) * 8
		}
		if funcBits != streamBits {
			t.Errorf("%s: functions account for %d bits, streams carry %d", name, funcBits, streamBits)
		}
	}
}

// TestDictEconomics: on a program where the compressor adopted
// patterns, the audited savings must be self-consistent — learned
// entries were actually used, and their realized P is what the
// base-vs-actual byte accounting says.
func TestDictEconomics(t *testing.T) {
	_, briscData := buildArtifacts(t, "sieve", workload.Kernels()["sieve"])
	art, err := Analyze("sieve", briscData)
	if err != nil {
		t.Fatal(err)
	}
	learned := learnedDict(art.Report.Dict)
	if len(learned) == 0 {
		t.Skip("compressor adopted no patterns on this input")
	}
	usedOne := false
	for _, d := range learned {
		if d.Units > 0 {
			usedOne = true
			if d.SavedP != d.BaseBytes-d.StreamBytes {
				t.Errorf("dict[%d]: P %d != base %d − stream %d", d.Pid, d.SavedP, d.BaseBytes, d.StreamBytes)
			}
			if d.EntryBytes <= 0 {
				t.Errorf("dict[%d]: learned entry with no serialized bytes", d.Pid)
			}
		}
	}
	if !usedOne {
		t.Error("no learned dictionary entry is used by any unit")
	}
}

// TestHotJoin is the dynamic acceptance criterion: running the
// interpreter over an example module and joining its trace with the
// static attribution yields dictionary entries and opcodes with
// nonzero dynamic counts attached to nonzero static bytes.
func TestHotJoin(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", "fib.mc"))
	if err != nil {
		t.Fatal(err)
	}
	_, briscData := buildArtifacts(t, "fib.mc", string(src))
	art, err := Analyze("fib.mc", briscData)
	if err != nil {
		t.Fatal(err)
	}

	counts := map[int32]int64{}
	it := brisc.NewInterp(art.Brisc.Obj, 0, io.Discard)
	it.Trace = func(off int32) { counts[off]++ }
	rec := telemetry.New()
	it.SetRecorder(rec)
	if _, err := it.Run(0); err != nil {
		t.Fatalf("interp: %v", err)
	}
	it.FlushTelemetry()
	dispatch := map[string]int64{}
	for k, v := range rec.Counters() {
		if strings.HasPrefix(k, "brisc.interp.dispatch.") {
			dispatch[strings.TrimPrefix(k, "brisc.interp.dispatch.")] = v
		}
	}

	hr := Hot("fib.mc", art.Brisc, counts, dispatch)
	if hr.TotalDyn == 0 {
		t.Fatal("no units executed")
	}
	hotEntries := 0
	for _, e := range hr.Entries {
		if e.DynCount > 0 && e.StaticBytes > 0 {
			hotEntries++
		}
	}
	if hotEntries == 0 {
		t.Error("no dictionary entry joins nonzero dynamic count with static bytes")
	}
	joined := 0
	for _, op := range hr.Ops {
		if op.Static > 0 && op.Dispatch > 0 {
			joined++
		}
	}
	if joined == 0 {
		t.Error("no opcode joins static occurrences with dispatch counts")
	}
	var out strings.Builder
	FormatHot(&out, hr)
	if !strings.Contains(out.String(), "density") {
		t.Error("hot report missing density table")
	}
}

// TestPublish: the telemetry view of a report must carry the headline
// gauges through a Collector sink.
func TestPublish(t *testing.T) {
	wireData, _ := buildArtifacts(t, "fib", workload.Kernels()["fib"])
	art, err := Analyze("fib", wireData)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	art.Report.Publish(rec)
	g := rec.Gauges()
	if g["attrib.wir2.total_bytes"] != float64(art.Report.TotalBytes) {
		t.Errorf("total_bytes gauge %v, want %d", g["attrib.wir2.total_bytes"], art.Report.TotalBytes)
	}
	if _, ok := g["attrib.wir2.class.metadata.bytes"]; !ok {
		t.Error("missing per-class gauge")
	}
}
