package codecomp

// Golden artifact-identity suite: the fast-path work (table-driven
// Huffman, word-at-a-time bit I/O, predecoded BRISC dispatch) must
// never change a single output byte. Each entry pins the SHA-256 of a
// compressed artifact built from a deterministic input; regenerate with
//
//	UPDATE_ARTIFACT_HASHES=1 go test -run TestArtifactGolden .
//
// only after an *intentional* format change, and say so in the commit.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
)

const goldenPath = "testdata/artifact_hashes.json"

func buildArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	arts := map[string][]byte{}
	for _, p := range []workload.Profile{workload.Lcc, workload.Gcc, workload.Wep} {
		mod, err := cc.Compile(p.Name, workload.Generate(p))
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		wb, err := wire.Compress(mod)
		if err != nil {
			t.Fatalf("wire %s: %v", p.Name, err)
		}
		arts["wir2/"+p.Name] = wb
		addProgramKeys(t, arts, p.Name, mod, wb)
		wx, err := wire.CompressIndexed(mod, wire.Options{})
		if err != nil {
			t.Fatalf("wirx %s: %v", p.Name, err)
		}
		arts["wirx/"+p.Name] = wx
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			t.Fatalf("codegen %s: %v", p.Name, err)
		}
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			t.Fatalf("brisc %s: %v", p.Name, err)
		}
		arts["brs1/"+p.Name] = obj.Bytes()
		arts["pgs/"+p.Name] = xipStore(t, obj, brisc.XIPOptions{})
		arts["jit/"+p.Name] = jitProgram(t, obj)
		if p.Name == workload.Wep.Name {
			addOptionVariants(t, arts, p.Name, mod)
			arts["pgs/"+p.Name+"-hot"] = xipStore(t, obj, brisc.XIPOptions{PageSize: 256, BlockCounts: hotBlocks(t, obj)})
		}
	}
	for name, src := range workload.Kernels() {
		mod, err := cc.Compile(name, src)
		if err != nil {
			t.Fatalf("compile kernel %s: %v", name, err)
		}
		wb, err := wire.Compress(mod)
		if err != nil {
			t.Fatalf("wire kernel %s: %v", name, err)
		}
		arts["wir2/kernel-"+name] = wb
		addProgramKeys(t, arts, "kernel-"+name, mod, wb)
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			t.Fatalf("codegen kernel %s: %v", name, err)
		}
		obj, err := brisc.Compress(prog, brisc.Options{})
		if err != nil {
			t.Fatalf("brisc kernel %s: %v", name, err)
		}
		arts["brs1/kernel-"+name] = obj.Bytes()
		if name == "qsortk" {
			arts["jit/kernel-"+name] = jitProgram(t, obj)
		}
	}
	return arts
}

// addProgramKeys pins mod's textual IR as ir/<name> and the program
// codegen.Generate makes of it as vm/<name>, and requires the module
// decoded from its wire object wb to generate that same program.
func addProgramKeys(t *testing.T, arts map[string][]byte, name string, mod *ir.Module, wb []byte) {
	t.Helper()
	arts["ir/"+name] = []byte(mod.String())
	prog, err := codegen.Generate(mod, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen %s: %v", name, err)
	}
	arts["vm/"+name] = encodeProgram(prog)
	back, err := wire.Decompress(wb)
	if err != nil {
		t.Fatalf("wire decode %s: %v", name, err)
	}
	prog, err = codegen.Generate(back, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen of decoded %s: %v", name, err)
	}
	if !bytes.Equal(encodeProgram(prog), arts["vm/"+name]) {
		t.Errorf("%s: the wire round trip changes the generated program", name)
	}
}

// jitProgram JITs obj and encodes the resulting vm.Program.
func jitProgram(t *testing.T, obj *brisc.Object) []byte {
	t.Helper()
	p, err := brisc.JIT(obj)
	if err != nil {
		t.Fatalf("jit %s: %v", obj.Name, err)
	}
	return encodeProgram(p)
}

// encodeProgram encodes p in a fixed little-endian layout: code,
// funcs, block starts, then globals and the data size. A vm.Program
// has no serialized form of its own; this encoding pins the JIT's and
// the code generator's output the way the artifact bytes pin the
// compressors'.
func encodeProgram(p *vm.Program) []byte {
	var b []byte
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	str := func(s string) { u32(len(s)); b = append(b, s...) }
	u32(len(p.Code))
	for _, ins := range p.Code {
		b = append(b, byte(ins.Op), ins.Rd, ins.Rs1, ins.Rs2)
		u32(int(ins.Imm))
		u32(int(ins.Target))
	}
	u32(len(p.Funcs))
	for _, f := range p.Funcs {
		str(f.Name)
		u32(f.Entry)
		u32(f.End)
		u32(f.Frame)
	}
	u32(len(p.BlockStarts))
	for _, s := range p.BlockStarts {
		u32(s)
	}
	u32(len(p.Globals))
	for _, g := range p.Globals {
		str(g.Name)
		u32(int(g.Addr))
		u32(g.Size)
		u32(len(g.Init))
		b = append(b, g.Init...)
	}
	u32(p.DataSize)
	return b
}

// xipStore serializes obj's XIP page store under opt.
func xipStore(t *testing.T, obj *brisc.Object, opt brisc.XIPOptions) []byte {
	t.Helper()
	img, err := brisc.BuildXIP(obj, opt)
	if err != nil {
		t.Fatalf("xip %s: %v", obj.Name, err)
	}
	return img.StoreBytes()
}

// hotBlocks profiles one full run of obj into the per-block counts the
// XIP layout pass consumes, as BenchmarkXIP does.
func hotBlocks(t *testing.T, obj *brisc.Object) map[int32]int64 {
	t.Helper()
	counts := map[int32]int64{}
	it := brisc.NewInterp(obj, 0, io.Discard)
	it.Trace = func(off int32) { counts[off]++ }
	if _, err := it.Run(0); err != nil {
		t.Fatalf("profile %s: %v", obj.Name, err)
	}
	return brisc.BlockCountsFromTrace(obj, counts)
}

// addOptionVariants pins WIR2 and WIRX under every non-default pipeline
// option, so the stream coder and final stage are covered off the
// default path too.
func addOptionVariants(t *testing.T, arts map[string][]byte, name string, mod *ir.Module) {
	t.Helper()
	for _, v := range []struct {
		suffix string
		opt    wire.Options
	}{
		{"nomtf", wire.Options{NoMTF: true}},
		{"nohuffman", wire.Options{NoHuffman: true}},
		{"finalarith", wire.Options{Final: wire.FinalArith}},
		{"finalnone", wire.Options{Final: wire.FinalNone}},
	} {
		wb, err := wire.CompressOpts(mod, v.opt)
		if err != nil {
			t.Fatalf("wire %s/%s: %v", name, v.suffix, err)
		}
		arts["wir2/"+name+"-"+v.suffix] = wb
		wx, err := wire.CompressIndexed(mod, v.opt)
		if err != nil {
			t.Fatalf("wirx %s/%s: %v", name, v.suffix, err)
		}
		arts["wirx/"+name+"-"+v.suffix] = wx
	}
}

func TestArtifactGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads are slow; run without -short")
	}
	arts := buildArtifacts(t)
	got := map[string]string{}
	for k, v := range arts {
		sum := sha256.Sum256(v)
		got[k] = hex.EncodeToString(sum[:])
	}
	if os.Getenv("UPDATE_ARTIFACT_HASHES") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d hashes to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with UPDATE_ARTIFACT_HASHES=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == "" {
			t.Errorf("%s: artifact no longer produced", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: artifact bytes changed: %s != golden %s", k, got[k][:16], want[k][:16])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: artifact missing from golden file (regenerate)", k)
		}
	}
}
