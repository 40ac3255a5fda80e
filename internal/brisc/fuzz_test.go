package brisc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
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
