package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cc"
	"repro/internal/flatezip"
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
	data, err := CompressIndexed(integrityTestModule(t), Options{})
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

// TestIndexedChunkCorruption flips bytes across the chunk region and
// demands typed errors from the per-chunk CRC on load.
func TestIndexedChunkCorruption(t *testing.T) {
	data, err := CompressIndexed(integrityTestModule(t), Options{})
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
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	writeModuleHeader(bw, &ir.Module{Name: "bomb", Functions: []*ir.Function{{Name: "f", Nodes: []ir.Node{{Op: ir.RETV}}, Roots: []int32{0}}}})
	writeShapeTable(bw, [][]ir.Op{{ir.RETV}})
	writeSegment(bw, shapeSeg)
	writeUvarint(bw, 1<<26)
	writeSegment(bw, []byte{0, 0, 0, 0})
	for j := 2; j < numStreams(); j++ {
		writeUvarint(bw, 0)
	}
	mustW(bw.Flush())
	data, err := finalize(buf.Bytes(), Options{Final: FinalNone}, nil)
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
