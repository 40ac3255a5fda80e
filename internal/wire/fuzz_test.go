package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/integrity"
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

// FuzzParseContainer mutates a WIR2 container body (what openContainer
// hands parseContainer) and re-seals every stream segment's CRC before
// parsing it, so mutations reach readModuleHeader, readStream and fill
// instead of failing a checksum as almost all of FuzzDecompress's do.
// flags selects the stream options (bit 0 NoMTF, bit 1 NoHuffman).
// Every rejection is a typed corrupt-input error, and every accepted
// module passes ir.Module.Validate and reaches codegen.
func FuzzParseContainer(f *testing.F) {
	mods := []*ir.Module{}
	if m, err := cc.Compile("seed", `
int g = 7;
int f(int a, int b) { return a * b + g; }
int main(void) { return f(2, 3); }`); err == nil {
		mods = append(mods, m)
	}
	for name, src := range exampleSources() {
		if m, err := cc.Compile(name, src); err == nil {
			mods = append(mods, m)
		}
	}
	for _, tc := range hostileCases {
		m := hostileBase()
		tc.mutate(m)
		mods = append(mods, m)
	}
	for _, m := range mods {
		for flags := byte(0); flags < 3; flags++ {
			if _, c, err := encodeContainer(m, containerOptions(flags), nil); err == nil {
				f.Add(c, flags)
			}
		}
	}
	f.Fuzz(func(t *testing.T, container []byte, flags byte) {
		data := slices.Clone(container)
		resealSegments(data)
		m, err := parseContainer(data, containerOptions(flags), nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid module: %v", err)
		}
		generates(t, m)
	})
}

// containerOptions maps FuzzParseContainer's flags to serial decode
// options.
func containerOptions(flags byte) Options {
	return Options{NoMTF: flags&1 != 0, NoHuffman: flags&2 != 0, Workers: 1}
}

// resealSegments walks a container's segment framing as readSegments
// does and rewrites each segment's CRC trailer to match its bytes. It
// stops at the first header, shape table or frame it cannot follow,
// leaving the rest for parseContainer to reject.
func resealSegments(data []byte) {
	br := bitio.NewReaderBytes(data)
	if _, _, err := readModuleHeader(br); err != nil {
		return
	}
	if _, err := readShapeTable(br); err != nil || br.BitsRead()%8 != 0 {
		return
	}
	pos := int(br.BitsRead() / 8)
	uv := func() (int, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 || v > uint64(len(data)) {
			return 0, false
		}
		pos += n
		return int(v), true
	}
	for j := 0; j < numStreams(); j++ {
		if j > 0 {
			count, ok := uv()
			if !ok {
				return
			}
			if count == 0 {
				continue
			}
		}
		n, ok := uv()
		if !ok || len(data)-pos < n+integrity.ChecksumLen {
			return
		}
		binary.LittleEndian.PutUint32(data[pos+n:], integrity.Checksum(data[pos:pos+n]))
		pos += n + integrity.ChecksumLen
	}
}

// TestResealSegments: resealSegments follows the framing through
// every segment, so FuzzParseContainer's mutants get past every CRC. A
// container with every segment's CRC trailer flipped fails its
// checksum, and parses again once resealed.
func TestResealSegments(t *testing.T) {
	m, err := cc.Compile("seed", `int g = 7; int main(void) { return g * 3 + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := encodeContainer(m, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	br := bitio.NewReaderBytes(c)
	_, treeCounts, err := readModuleHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readShapeTable(br); err != nil {
		t.Fatal(err)
	}
	segs, err := readSegments(br, len(c), treeCounts)
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range segs {
		if j == 0 || s.count > 0 {
			c[s.end-1] ^= 0x5A
		}
	}
	if _, err := parseContainer(c, Options{Workers: 1}, nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped CRCs: got %v, want a checksum mismatch", err)
	}
	resealSegments(c)
	if _, err := parseContainer(c, Options{Workers: 1}, nil); err != nil {
		t.Fatalf("resealed container: %v", err)
	}
}
