package brisc

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/workload"
)

// FuzzParse: the object parser must never panic on arbitrary bytes,
// and a parsed object's interpreter must fail cleanly rather than
// crash. A parsed object whose code does not predecode must be
// rejected up front by every engine: Run returns ErrCorrupt having
// executed and printed nothing, and JIT and BuildXIP fail.
func FuzzParse(f *testing.F) {
	prog := compileProg(f, "seed", saltSrc)
	if obj, err := Compress(prog, Options{}); err == nil {
		f.Add(obj.Bytes())
		f.Add(EncodeDict(obj.LearnedDict()))
	}
	// Real artifacts from the shared example modules widen the corpus;
	// a missing tree just leaves the inline seeds.
	if files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc")); len(files) > 0 {
		for _, p := range files {
			src, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			mprog := compileProg(f, filepath.Base(p), string(src))
			if obj, err := Compress(mprog, Options{}); err == nil {
				f.Add(obj.Bytes())
				f.Add(EncodeDict(obj.LearnedDict()))
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BRS1"))
	f.Add([]byte("BRD1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := Parse(data)
		if err != nil {
			_, _ = DecodeDict(data)
			return
		}
		// A structurally valid object may still contain garbage code;
		// execution must stop with an error, not a panic.
		var out bytes.Buffer
		it := NewInterp(obj, 1<<16, &out)
		_, runErr := it.Run(10_000)
		_, jitErr := JIT(obj)
		if _, err := obj.predecode(); err == nil {
			return
		}
		if !errors.Is(runErr, ErrCorrupt) || it.Steps != 0 || out.Len() != 0 {
			t.Fatalf("undecodable image: Run err %v after %d steps, output %q", runErr, it.Steps, out.String())
		}
		if jitErr == nil {
			t.Fatal("undecodable image: JIT succeeded")
		}
		if _, err := BuildXIP(obj, XIPOptions{}); err == nil {
			t.Fatal("undecodable image: BuildXIP succeeded")
		}
	})
}

// FuzzOpenXIPStore: a page store opened against a fixed wep object and
// run demand-paged at 4 resident pages under the governor must end in
// a clean exit, a typed error or a governor trap, never a panic. The
// header is checked against the layout at open and each page's CRC on
// every fault, so a mutant that gets past both runs the original code.
func FuzzOpenXIPStore(f *testing.F) {
	obj := xipObject(f, "wep", workload.Generate(workload.Wep), Options{})
	opt := XIPOptions{PageSize: 256}
	img, err := BuildXIP(obj, opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.StoreBytes())
	f.Add([]byte{})
	f.Add([]byte("PGS1"))
	limits := guard.Limits{MaxSteps: 200_000, MaxCallDepth: 512}.WithTimeout(10 * time.Second)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := OpenXIPStore(obj, data, opt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		it := NewInterp(obj, 0, io.Discard)
		if err := it.EnableXIP(img, 4, 0); err != nil {
			t.Fatal(err)
		}
		if err := it.SetLimits(limits); err != nil {
			t.Fatal(err)
		}
		_, err = it.Run(0)
		for _, kind := range []error{nil, ErrCorrupt, guard.ErrLimit, ErrOutOfSteps, ErrMemFault, ErrDivByZero} {
			if errors.Is(err, kind) {
				return
			}
		}
		t.Fatalf("untyped run error: %v", err)
	})
}
