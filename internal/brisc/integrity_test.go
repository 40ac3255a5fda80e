package brisc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/integrity"
)

// TestObjectEveryByteFlipDetected: between the magic/version checks
// and the per-frame CRCs, no single-byte corruption of a BRISC object
// may parse silently.
func TestObjectEveryByteFlipDetected(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := obj.Bytes()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x20
		_, err := Parse(bad)
		if err == nil {
			t.Fatalf("flip at byte %d of %d parsed silently", i, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: untyped error: %v", i, err)
		}
	}
}

// TestObjectTruncationSweep: every prefix must fail typed.
func TestObjectTruncationSweep(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := obj.Bytes()
	for cut := 0; cut < len(data); cut++ {
		_, err := Parse(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d of %d parsed silently", cut, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: untyped error: %v", cut, err)
		}
	}
}

// TestObjectVersionRejected: the version byte gates parsing before
// any frame is read.
func TestObjectVersionRejected(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), obj.Bytes()...)
	data[4] = 99
	_, err = Parse(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99 not rejected as ErrVersion: %v", err)
	}
	if !errors.Is(err, integrity.ErrVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version error misses taxonomy aliases: %v", err)
	}
}

// TestObjectSectionSizeCap: a frame declaring an absurd length — the
// frame lengths sit outside the CRCs — must hit the per-section cap
// before any allocation.
func TestObjectSectionSizeCap(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := obj.Bytes()
	// The metadata frame's length varint starts right after magic+version.
	const lenOff = 5
	_, n := binary.Uvarint(data[lenOff:])
	if n <= 0 {
		t.Fatal("cannot locate metadata length varint")
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F} // 2^32-1
	bad := append(append(append([]byte(nil), data[:lenOff]...), huge...), data[lenOff+n:]...)
	_, err = Parse(bad)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("4GiB metadata frame not rejected as ErrTooLarge: %v", err)
	}
	if !errors.Is(err, integrity.ErrTooLarge) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cap error misses taxonomy aliases: %v", err)
	}
}

// TestDictEveryByteFlipDetected: the dictionary file is sealed with a
// whole-file CRC.
func TestDictEveryByteFlipDetected(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeDict(obj.LearnedDict())
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x04
		if _, err := DecodeDict(bad); err == nil {
			t.Fatalf("dict flip at byte %d decoded silently", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dict flip at byte %d: untyped error: %v", i, err)
		}
	}
}

// TestRoundTripAfterHardening: v2 framing must not change what comes
// back out on the happy path.
func TestRoundTripAfterHardening(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(obj.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Bytes()) != string(obj.Bytes()) {
		t.Fatal("re-encoded object differs after parse round trip")
	}
	dict, err := DecodeDict(EncodeDict(obj.LearnedDict()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dict) != len(obj.LearnedDict()) {
		t.Fatalf("dict round trip: %d patterns, want %d", len(dict), len(obj.LearnedDict()))
	}
}

// TestCorruptCodeRejectedByEveryEngine: every section of this object
// verifies, so Parse accepts it, but its last block opens with an
// opcode index beyond the block-start context's follower table, so it
// does not decode. Every engine rejects it with ErrCorrupt up front:
// Run executes and prints nothing, and JIT, BuildXIP and Inspect fail
// too.
func TestCorruptCodeRejectedByEveryEngine(t *testing.T) {
	prog := compileProg(t, "integ", saltSrc)
	good, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Parse(good.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Contexts[0]) >= 255 {
		t.Fatalf("block-start context lists %d followers; no index byte is out of table", len(obj.Contexts[0]))
	}
	obj.Code[obj.Blocks[len(obj.Blocks)-1]] = byte(len(obj.Contexts[0]))
	data := obj.Bytes()
	if obj, err = Parse(data); err != nil {
		t.Fatalf("Parse rejected the re-sealed object: %v", err)
	}
	if _, err := obj.decodeImage(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decodeImage: %v, want ErrCorrupt", err)
	}

	var out bytes.Buffer
	it := NewInterp(obj, 0, &out)
	if _, err := it.Run(0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Run: %v, want ErrCorrupt", err)
	}
	if it.Steps != 0 || it.Units != 0 || out.Len() != 0 {
		t.Errorf("Run executed %d steps, %d units, printed %q before failing", it.Steps, it.Units, out.String())
	}
	if _, err := JIT(obj); !errors.Is(err, ErrCorrupt) {
		t.Errorf("JIT: %v, want ErrCorrupt", err)
	}
	if _, err := BuildXIP(obj, XIPOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BuildXIP: %v, want ErrCorrupt", err)
	}
	if _, err := Inspect(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Inspect: %v, want ErrCorrupt", err)
	}
}
