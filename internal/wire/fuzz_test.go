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
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/mtf"
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
		if data, err := CompressIndexedTraced(mod, opt, nil); err == nil {
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
		if data, err := CompressIndexedTraced(mod, Options{}, nil); err == nil {
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

// containerOptions maps FuzzParseContainer's flags to decode options.
func containerOptions(flags byte) Options {
	return Options{NoMTF: flags&1 != 0, NoHuffman: flags&2 != 0}
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
	if _, err := parseContainer(c, Options{}, nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped CRCs: got %v, want a checksum mismatch", err)
	}
	resealSegments(c)
	if _, err := parseContainer(c, Options{}, nil); err != nil {
		t.Fatalf("resealed container: %v", err)
	}
}

// readStreamOracle is readStream one symbol at a time, as the decoder
// read streams before its fused loop: huffman's bit-walking DecodeSlow
// for every symbol, and the MTF stage in mtf's tree mode from the first
// symbol (mtf.Resume with an empty table), so neither the decode table
// nor the MTF array of decodeSymbols takes part.
func readStreamOracle(br *bitio.Reader, segBytes, count int, noMTF bool) ([]int32, error) {
	if err := fitSymbols(br, segBytes, count); err != nil {
		return nil, err
	}
	nFirsts, err := readUvarint(br)
	if err != nil || nFirsts > uint64(count) {
		return nil, errors.New("firsts count")
	}
	firsts := make([]int32, nFirsts)
	for i := range firsts {
		v, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		firsts[i] = unzigzag(v)
	}
	// Under MTF a symbol is 0 or the rank of a value seen so far.
	bound := len(firsts) + 1
	if noMTF {
		bound = huffman.MaxSymbols
	}
	code, err := huffman.ReadLengths(br, nil, bound)
	if err != nil {
		return nil, err
	}
	u := mtf.Resume(nil, firsts)
	vals := make([]int32, count)
	for i := range vals {
		sym, err := code.DecodeSlow(br)
		if err != nil {
			return nil, err
		}
		if noMTF {
			vals[i] = unzigzag(uint64(sym))
			continue
		}
		var ok bool
		if vals[i], ok = u.Next(sym); !ok {
			return nil, errMTF
		}
	}
	return vals, nil
}

// FuzzReadStream runs arbitrary WIR2 segment bytes, coding count
// symbols, through readStream's fused loop and through
// readStreamOracle, and requires the same values, the same
// error-or-not, and the same bits consumed. flags bit 0 selects NoMTF;
// the rest, when nonzero, cap the fused loop's MTF array at
// flags>>1 - 1 values, so small streams reach the hand-over to tree
// mode. The seeds are every segment of the example modules, at the
// default cap and at caps of 0, 1 and 7, and each also with one symbol
// too many and cut to two thirds, plus a stream under a code too deep
// for the decode table.
func FuzzReadStream(f *testing.F) {
	for name, src := range exampleSources() {
		m, err := cc.Compile(name, src)
		if err != nil {
			continue
		}
		for _, noMTF := range []bool{false, true} {
			_, c, err := encodeContainer(m, Options{NoMTF: noMTF, Workers: 1}, nil)
			if err != nil {
				f.Fatal(err)
			}
			br := bitio.NewReaderBytes(c)
			_, treeCounts, err := readModuleHeader(br)
			if err != nil {
				f.Fatal(err)
			}
			if _, err := readShapeTable(br); err != nil {
				f.Fatal(err)
			}
			segs, err := readSegments(br, len(c), treeCounts)
			if err != nil {
				f.Fatal(err)
			}
			for _, s := range segs {
				if s.count == 0 {
					continue
				}
				if noMTF {
					f.Add(s.data, uint32(s.count), byte(1))
					continue
				}
				for _, flags := range []byte{0, 1 << 1, 2 << 1, 8 << 1} {
					f.Add(s.data, uint32(s.count), flags)
				}
				// Past the last symbol into the padding, and cut short:
				// the tail where codes outrun the bits left.
				f.Add(s.data, uint32(s.count+1), byte(0))
				f.Add(s.data[:len(s.data)*2/3], uint32(s.count), byte(0))
			}
		}
	}
	// A code deeper than the decode table reaches (lengths 1 to 32), so
	// its deep symbols take DecodeSlow and the loop carries on after.
	var deep []uint8
	for l := uint8(1); l <= 31; l++ {
		deep = append(deep, l)
	}
	code, err := huffman.FromLengths(append(deep, 32, 32))
	if err != nil {
		f.Fatal(err)
	}
	syms := append(make([]int, 33), 32, 31, 1, 32, 30, 2)
	firsts := make([]int32, 33)
	for i := range firsts {
		firsts[i] = int32(7*i - 50)
	}
	bw := new(bitio.Writer)
	if err := writeStream(bw, syms, firsts, code, true); err != nil {
		f.Fatal("writing the deep-code seed failed")
	}
	f.Add(bw.Bytes(), uint32(len(syms)), byte(0))
	f.Add(bw.Bytes(), uint32(len(syms)), byte(1))
	f.Fuzz(func(t *testing.T, seg []byte, count uint32, flags byte) {
		if count > 1<<20 {
			count %= 1 << 20
		}
		if c := int(flags >> 1); c > 0 {
			defer func(old int) { arrayMTFMax = old }(arrayMTFMax)
			arrayMTFMax = c - 1
		}
		noMTF := flags&1 != 0
		fused := bitio.NewReaderBytes(seg)
		got, gerr := readStream(fused, len(seg), int(count), Options{NoMTF: noMTF}, nil, true, new(huffman.Arena))
		walk := bitio.NewReaderBytes(seg)
		want, werr := readStreamOracle(walk, len(seg), int(count), noMTF)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("fused loop error %v, oracle error %v", gerr, werr)
		}
		if gerr == nil && !slices.Equal(got, want) {
			t.Fatalf("fused loop decoded %v, oracle %v", got, want)
		}
		if fused.BitsRead() != walk.BitsRead() {
			t.Fatalf("fused loop read %d bits, oracle %d (errors %v, %v)", fused.BitsRead(), walk.BitsRead(), gerr, werr)
		}
	})
}
