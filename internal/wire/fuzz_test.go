package wire

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/vm"
)

// exampleSources reads the shared example modules so real artifacts
// seed the corpus; an empty map (tree moved, partial checkout) just
// leaves the inline seeds.
func exampleSources() map[string]string {
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc"))
	out := map[string]string{}
	for _, p := range files {
		if b, err := os.ReadFile(p); err == nil {
			out[filepath.Base(p)] = string(b)
		}
	}
	return out
}

// Fuzz targets: decoders must never panic on arbitrary bytes. Under
// plain `go test` these run their seed corpus; `go test -fuzz` explores
// further.

func fuzzSeeds(f *testing.F) {
	mod, err := cc.Compile("seed", `
int g = 7;
int f(int a, int b) { return a * b + g; }
int main(void) { return f(2, 3); }`)
	if err != nil {
		f.Fatal(err)
	}
	for _, opt := range []Options{{}, {NoMTF: true}, {Final: FinalArith}, {Final: FinalNone}} {
		if data, err := CompressOpts(mod, opt); err == nil {
			f.Add(data)
		}
		if data, err := CompressIndexed(mod, opt); err == nil {
			f.Add(data)
		}
	}
	for name, src := range exampleSources() {
		mod, err := cc.Compile(name, src)
		if err != nil {
			continue
		}
		if data, err := Compress(mod); err == nil {
			f.Add(data)
		}
		if data, err := CompressIndexed(mod, Options{}); err == nil {
			f.Add(data)
		}
	}
	// Invalid modules the encoder would refuse: only the decoder's
	// own checks stand between these and a caller.
	for _, tc := range hostileCases {
		m := hostileBase()
		tc.mutate(m)
		f.Add(encodeUnchecked(f, m))
		f.Add(encodeIndexedUnchecked(f, m))
	}
	f.Add([]byte{})
	f.Add([]byte("WIR1"))
	f.Add([]byte("WIRX"))
}

// generates checks that codegen, which indexes a module's node arrays
// directly, returns a program or an error for a module the decoder
// accepted, and does not panic; a program then runs on a small VM for
// a few steps, which may fail but must not panic either.
func generates(t *testing.T, m *ir.Module) {
	t.Helper()
	p, err := codegen.Generate(m, codegen.Options{})
	if err != nil {
		return
	}
	if p == nil {
		t.Fatal("codegen returned neither a program nor an error")
	}
	mach := vm.NewMachine(p, 1<<16, io.Discard)
	defer mach.Release()
	mach.Run(10_000)
}

// FuzzDecompress: every rejection is a typed corrupt-input error, and
// every module the decoder accepts passes ir.Module.Validate, the
// reference for the checks the decoder folds into its fill, and
// reaches codegen.
func FuzzDecompress(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decompress(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil module without error")
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid module: %v", err)
		}
		generates(t, m)
	})
}

// FuzzOpenIndexed holds WIRX to the same contract as FuzzDecompress,
// loading one function on its own before the rest.
func FuzzOpenIndexed(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenIndexed(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		if fns := r.Functions(); len(fns) > 0 {
			if _, err := r.LoadFunction(fns[len(fns)-1]); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
		}
		m, err := r.LoadAll()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid module: %v", err)
		}
		generates(t, m)
	})
}

// FuzzInspect: Inspect reads artifacts from outside the program (via
// compscope), so it must never panic, and every rejection must be a
// typed corrupt-input error.
func FuzzInspect(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		insp, err := Inspect(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if insp == nil {
			t.Fatal("nil inspection without error")
		}
	})
}
