package wire

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arith"
	"repro/internal/bitio"
	"repro/internal/cc"
	"repro/internal/flatezip"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/ir"
)

func integrityTestModule(t testing.TB) *ir.Module {
	t.Helper()
	mod, err := cc.Compile("integ", `
int g = 42;
int twice(int x) { return x + x; }
int main(void) { return twice(g); }`)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestEveryByteFlipDetected: the whole-file CRC means no single-byte
// corruption of a wire object can decode silently — every flip must
// surface a typed error.
func TestEveryByteFlipDetected(t *testing.T) {
	data, err := Compress(integrityTestModule(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		_, err := Decompress(bad)
		if err == nil {
			t.Fatalf("flip at byte %d decoded silently", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: untyped error: %v", i, err)
		}
	}
}

// TestTruncationSweep: every prefix of a wire object must be rejected
// with a typed error.
func TestTruncationSweep(t *testing.T) {
	data, err := Compress(integrityTestModule(t))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		_, err := Decompress(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded silently", cut, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: untyped error: %v", cut, err)
		}
	}
}

// TestVersionByteRejected rewrites the version byte and reseals the
// file CRC, so the error must come from the version check itself.
func TestVersionByteRejected(t *testing.T) {
	data, err := Compress(integrityTestModule(t))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), data[:len(data)-integrity.ChecksumLen]...)
	body[4] = 99
	bad := integrity.AppendChecksum(body, body)
	_, err = Decompress(bad)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99 not rejected as ErrVersion: %v", err)
	}
	if !errors.Is(err, integrity.ErrVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version error misses taxonomy aliases: %v", err)
	}
}

// TestIndexedVersionByteRejected: the indexed header checks its
// version before the prefix CRC, so a plain byte rewrite suffices.
func TestIndexedVersionByteRejected(t *testing.T) {
	data, err := CompressIndexedTraced(integrityTestModule(t), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[4] = 99
	_, err = OpenIndexed(bad)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("indexed version 99 not rejected as ErrVersion: %v", err)
	}
}

// TestContainerSizeCap: a declared container size beyond the
// configured cap must be rejected before decompression allocates.
func TestContainerSizeCap(t *testing.T) {
	data, err := Compress(integrityTestModule(t))
	if err != nil {
		t.Fatal(err)
	}
	old := MaxContainerBytes
	defer func() { MaxContainerBytes = old }()
	MaxContainerBytes = 8 // far below any real container
	_, err = Decompress(data)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("container above cap not rejected as ErrTooLarge: %v", err)
	}
	if !errors.Is(err, integrity.ErrTooLarge) {
		t.Fatalf("cap error misses shared taxonomy: %v", err)
	}
	MaxContainerBytes = old
	if _, err := Decompress(data); err != nil {
		t.Fatalf("restored cap rejects valid object: %v", err)
	}
}

// TestOversizedShapeRefused: a tree longer than the shape table's limit
// (`return x+x+…+x;` at 40,000 terms) is refused by both encoders with
// ErrTooLarge, so Compress never writes an artifact its own decoder
// rejects, while the same statement at 10,000 terms, under the limit,
// round-trips.
func TestOversizedShapeRefused(t *testing.T) {
	sum := func(terms int) *ir.Module {
		t.Helper()
		src := "int f(int x) { return x" + strings.Repeat("+x", terms-1) + "; }\n" +
			"int main(void) { return f(1); }\n"
		mod, err := cc.Compile("sum", src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	long := sum(40000)
	if data, err := Compress(long); !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrCorrupt) || data != nil {
		t.Errorf("Compress of a 40,000-term tree: %d bytes, err %v; want ErrTooLarge", len(data), err)
	}
	if data, err := CompressIndexedTraced(long, Options{}, nil); !errors.Is(err, ErrTooLarge) || data != nil {
		t.Errorf("CompressIndexed of a 40,000-term tree: %d bytes, err %v; want ErrTooLarge", len(data), err)
	}
	short := sum(10000)
	data, err := Compress(short)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(data)
	if err != nil {
		t.Fatalf("Decompress of a 10,000-term tree: %v", err)
	}
	if back.String() != short.String() {
		t.Error("10,000-term tree did not round-trip")
	}
}

// TestIndexedChunkCorruption flips bytes across the chunk region and
// demands typed errors from the per-chunk CRC on load.
func TestIndexedChunkCorruption(t *testing.T) {
	data, err := CompressIndexedTraced(integrityTestModule(t), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks sit at the tail; walk the last third of the file.
	for off := 2 * len(data) / 3; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x08
		r, err := OpenIndexed(bad)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d: untyped open error: %v", off, err)
			}
			continue
		}
		if _, err := r.LoadAll(); err == nil {
			t.Fatalf("flip at byte %d loaded silently", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("offset %d: untyped load error: %v", off, err)
		}
	}
}

// TestRoundTripAfterHardening: the v2 container must still reproduce
// the module exactly on the happy path.
func TestRoundTripAfterHardening(t *testing.T) {
	mod := integrityTestModule(t)
	for _, opt := range []Options{{}, {NoMTF: true}, {Final: FinalArith}, {Final: FinalNone}} {
		data, err := CompressOpts(mod, opt)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(data)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		if back.String() != mod.String() {
			t.Fatalf("opts %+v: module changed across round trip", opt)
		}
	}
}

// TestFinalStageBombCapped: every reader runs the final stage under
// MaxContainerBytes. Each input carries a real flatezip stream whose
// raw-size varint is rewritten to 64 MiB, sealed with valid CRCs, so
// only the cap stands between the reader and a 64 MiB allocation.
func TestFinalStageBombCapped(t *testing.T) {
	const bomb = 64 << 20
	fz := flatezip.Compress([]byte("a container that is not really there"))
	// An FZ1 stream is a 4-byte magic, the raw-size varint, the tables.
	_, n := binary.Uvarint(fz[4:])
	hostile := append(binary.AppendUvarint(append([]byte(nil), fz[:4]...), bomb), fz[4+n:]...)

	wir2 := func(declared uint64) []byte {
		b := append([]byte("WIR2"), formatVersion, 0)
		b = binary.AppendUvarint(b, declared)
		b = append(b, hostile...)
		return integrity.AppendChecksum(b, b)
	}
	wirx := append([]byte("WIRX"), formatVersion, 0)
	wirx = binary.AppendUvarint(wirx, uint64(len(hostile)))
	wirx = append(wirx, hostile...)
	wirx = binary.AppendUvarint(wirx, 0) // no chunks
	wirx = integrity.AppendChecksum(wirx, wirx)

	decompress := func(b []byte) error { _, err := Decompress(b); return err }
	inspect := func(b []byte) error { _, err := Inspect(b); return err }
	openIndexed := func(b []byte) error { _, err := OpenIndexed(b); return err }
	for _, tc := range []struct {
		name string
		read func([]byte) error
		data []byte
	}{
		{"Decompress/declared-bomb", decompress, wir2(bomb)},
		{"Decompress/stream-bomb", decompress, wir2(100)},
		{"Inspect/declared-bomb", inspect, wir2(bomb)},
		{"Inspect/stream-bomb", inspect, wir2(100)},
		{"OpenIndexed/header-bomb", openIndexed, wirx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := MaxContainerBytes
			defer func() { MaxContainerBytes = old }()
			MaxContainerBytes = 4 << 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read(tc.data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("hostile stream not rejected as ErrTooLarge: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("reader allocated %d bytes before rejecting", grew)
			}
		})
	}
}

// TestFinalStageRespectsDeclaredSize: under the default cap, a WIR2
// object whose final-stage stream could decode far past the size its
// header declares, or whose flatezip stream declares far more than its
// tokens can produce, fails having allocated less than 1 MiB.
func TestFinalStageRespectsDeclaredSize(t *testing.T) {
	wir2 := func(fc FinalCoder, declared uint64, payload []byte) []byte {
		b := append([]byte("WIR2"), formatVersion, byte(fc))
		b = binary.AppendUvarint(b, declared)
		b = append(b, payload...)
		return integrity.AppendChecksum(b, b)
	}
	const bomb = 64 << 20
	fz := flatezip.Compress([]byte("a container that is not really there"))
	_, n := binary.Uvarint(fz[4:])
	lz := append(binary.AppendUvarint(append([]byte(nil), fz[:4]...), bomb), fz[4+n:]...)
	zeros := arith.Compress(make([]byte, 2<<20), arith.Order1) // a few KiB
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"lz", wir2(FinalLZ, bomb, lz)},
		{"arith", wir2(FinalArith, 1000, zeros)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decompress(tc.data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte object: %v, want ErrCorrupt", len(tc.data), err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("reader allocated %d bytes before rejecting a %d-byte object", grew, len(tc.data))
			}
		})
	}
}

// TestSymbolCountBombCapped: a WIR2 file with valid CRCs whose first
// literal stream declares 2^26 symbols in a 4-byte segment, after a
// well-formed one-tree shape stream. A coded symbol costs at least one
// bit, so both WIR2 readers must reject the count as corrupt before
// allocating for it.
func TestSymbolCountBombCapped(t *testing.T) {
	shapeSeg, err := encodeSegment([]int32{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	writeModuleHeader(bw, &ir.Module{Name: "bomb", Functions: []*ir.Function{{Name: "f", Nodes: []ir.Node{{Op: ir.RETV}}, Roots: []int32{0}}}})
	writeShapeTable(bw, [][]ir.Op{{ir.RETV}})
	writeSegment(bw, shapeSeg)
	writeUvarint(bw, maxLiteralSymbols)
	writeSegment(bw, []byte{0, 0, 0, 0})
	for j := 2; j < numStreams(); j++ {
		writeUvarint(bw, 0)
	}
	data, err := finalize(bw.Bytes(), Options{Final: FinalNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	decompress := func(b []byte) error { _, err := Decompress(b); return err }
	inspect := func(b []byte) error { _, err := Inspect(b); return err }
	for name, read := range map[string]func([]byte) error{"Decompress": decompress, "Inspect": inspect} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read(data)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("declared symbol count not rejected as ErrCorrupt: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("reader allocated %d bytes before rejecting: %v", grew, err)
			}
		})
	}
}

// TestStreamTableBoundedByFirsts: an MTF-coded stream with one
// first-occurrence value can only use symbols 0 and 1, so readStream
// (and Inspect's decodeSegmentDetail) rejects an in-band table
// declaring more before allocating for it. A
// 4-byte table declaring 2^24 symbols fails under 1 MiB; NoMTF streams
// keep huffman.MaxSymbols as their only bound.
func TestStreamTableBoundedByFirsts(t *testing.T) {
	segment := func(declared uint64, runs ...[2]uint64) []byte {
		bw := new(bitio.Writer)
		writeUvarint(bw, 1) // one first-occurrence value
		writeUvarint(bw, zigzag(5))
		writeUvarint(bw, declared)
		for _, r := range runs {
			bw.WriteBits(r[0], 6)
			writeUvarint(bw, r[1])
		}
		bw.WriteBits(0, 8) // symbol 0: the new value
		return bw.Bytes()
	}
	read := func(seg []byte, opt Options) ([]int32, error) {
		return readStream(bitio.NewReaderBytes(seg), len(seg), 1, opt, nil, true, nil)
	}
	if vals, err := read(segment(2, [2]uint64{1, 2}), Options{}); err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("2-symbol table: %v, %v; want [5]", vals, err)
	}
	if _, err := read(segment(3, [2]uint64{1, 2}, [2]uint64{0, 1}), Options{}); !errors.Is(err, huffman.ErrBadLengths) {
		t.Fatalf("3-symbol table over one first: %v, want ErrBadLengths", err)
	}
	if _, err := read(segment(3, [2]uint64{1, 2}, [2]uint64{0, 1}), Options{NoMTF: true}); err != nil {
		t.Fatalf("3-symbol table in a NoMTF stream: %v", err)
	}
	bomb := segment(1 << 24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := read(bomb, Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, huffman.ErrBadLengths) {
		t.Fatalf("table declaring 2^24 symbols: %v, want ErrBadLengths", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reader allocated %d bytes before rejecting a %d-byte segment", grew, len(bomb))
	}
	// Inspect's per-segment decode applies the same bound.
	if err := decodeSegmentDetail(&StreamInfo{Count: 1}, bomb, Options{}); !errors.Is(err, huffman.ErrBadLengths) {
		t.Fatalf("Inspect's decode of a table declaring 2^24 symbols: %v, want ErrBadLengths", err)
	}
}

// TestChecksumOverlapsPrefix: the CRC32C of "WIR2\x02" starts with a
// valid options byte, so this 9-byte file passes the prefix and
// checksum checks while its sealed body is shorter than the prefix.
// Both WIR2 readers must report it truncated.
func TestChecksumOverlapsPrefix(t *testing.T) {
	body := append([]byte("WIR2"), formatVersion)
	data := integrity.AppendChecksum(append([]byte(nil), body...), body)
	if _, err := Decompress(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decompress: %v", err)
	}
	if _, err := Inspect(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Inspect: %v", err)
	}
}
