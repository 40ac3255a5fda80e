package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/brisc"
	"repro/internal/codegen"
	"repro/internal/wire"
	"repro/internal/workload"
)

const demo = `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main(void) { putint(fib(12)); return 0; }
`

func TestEndToEndPipelines(t *testing.T) {
	p, err := CompileC("demo", demo)
	if err != nil {
		t.Fatal(err)
	}

	var nativeOut bytes.Buffer
	code, err := p.Run(&nativeOut, 10_000_000)
	if err != nil || code != 0 {
		t.Fatalf("native: %v code=%d", err, code)
	}
	if nativeOut.String() != "144\n" {
		t.Fatalf("native output = %q", nativeOut.String())
	}

	// Wire pipeline.
	wb, err := p.Wire()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromWire(wb)
	if err != nil {
		t.Fatal(err)
	}
	var wireOut bytes.Buffer
	if _, err := back.Run(&wireOut, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if wireOut.String() != nativeOut.String() {
		t.Errorf("wire round trip changed behaviour: %q", wireOut.String())
	}

	// BRISC pipelines.
	obj, err := p.BRISC(brisc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var interpOut, jitOut bytes.Buffer
	if _, err := RunBRISC(obj, &interpOut, Limits{MaxSteps: 50_000_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunJIT(obj, &jitOut, Limits{MaxSteps: 10_000_000}); err != nil {
		t.Fatal(err)
	}
	if interpOut.String() != nativeOut.String() || jitOut.String() != nativeOut.String() {
		t.Errorf("BRISC outputs differ: interp=%q jit=%q", interpOut.String(), jitOut.String())
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := CompileC("bad", "int main(void) { return x; }"); err == nil {
		t.Error("semantic error not surfaced")
	}
	if _, err := CompileC("bad", "not c at all"); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestVariantOptionsFlowThrough(t *testing.T) {
	p, err := CompileC("demo", demo)
	if err != nil {
		t.Fatal(err)
	}
	p.CodegenOptions = codegen.Options{NoImmediates: true, NoRegDisp: true}
	var out bytes.Buffer
	if _, err := p.Run(&out, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "144\n" {
		t.Errorf("de-tuned variant output = %q", out.String())
	}
}

func TestWireOptsFlowThrough(t *testing.T) {
	p, err := CompileC("demo", demo)
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.CompressOpts(p.Module, wire.Options{Final: wire.FinalArith})
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromWire(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Module.Name != "demo" {
		t.Errorf("module name = %q", back.Module.Name)
	}
}

// TestQuickDifferential: for generated programs on fixed seeds, core's
// four execution paths (native, wire→native, BRISC interpreted, BRISC
// JIT) and a serialized BRISC object give identical output and exit
// codes. internal/difftest runs the same seeds on every engine below
// this facade.
func TestQuickDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 12; seed++ {
		src := workload.Generate(workload.Profile{
			Name: "rand", Seed: seed,
			LeafFuncs: 5, MidFuncs: 2, GlobalInts: 3, GlobalArrs: 2,
			Strings: 1, MeanStmts: 6,
		})
		p, err := CompileC("rand", src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		wb, err := p.Wire()
		if err != nil {
			t.Fatalf("seed %d: wire: %v", seed, err)
		}
		back, err := FromWire(wb)
		if err != nil {
			t.Fatalf("seed %d: from wire: %v", seed, err)
		}
		obj, err := p.BRISC(brisc.Options{})
		if err != nil {
			t.Fatalf("seed %d: brisc: %v", seed, err)
		}
		parsed, err := brisc.Parse(obj.Bytes())
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		var want bytes.Buffer
		wantCode, err := p.Run(&want, 30_000_000)
		if err != nil {
			t.Fatalf("seed %d: native run: %v", seed, err)
		}
		for _, path := range []struct {
			name string
			run  func(*bytes.Buffer) (int32, error)
		}{
			{"wire", func(out *bytes.Buffer) (int32, error) { return back.Run(out, 30_000_000) }},
			{"interp", func(out *bytes.Buffer) (int32, error) {
				return RunBRISC(obj, out, Limits{MaxSteps: 100_000_000})
			}},
			{"jit", func(out *bytes.Buffer) (int32, error) {
				return RunJIT(obj, out, Limits{MaxSteps: 30_000_000})
			}},
			{"parsed", func(out *bytes.Buffer) (int32, error) {
				return RunBRISC(parsed, out, Limits{MaxSteps: 100_000_000})
			}},
		} {
			var out bytes.Buffer
			code, err := path.run(&out)
			if err != nil || code != wantCode || out.String() != want.String() {
				t.Errorf("seed %d: %s: exit %d, err %v, out %q; native exit %d, out %q",
					seed, path.name, code, err, out.String(), wantCode, want.String())
			}
		}
	}
}

func ExampleCompileC() {
	p, err := CompileC("hello", `int main(void) { puts("hello, world"); return 0; }`)
	if err != nil {
		fmt.Println(err)
		return
	}
	var out bytes.Buffer
	if _, err := p.Run(&out, 1_000_000); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(out.String())
	// Output: hello, world
}
