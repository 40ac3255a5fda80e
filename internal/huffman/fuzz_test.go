package huffman

// Differential fuzzing of the table-driven decoder against the bit-walk
// oracle it replaced: for any code and any payload (valid or garbage),
// Decode and DecodeSlow must emit the same symbols, the same errors, and
// consume exactly the same number of bits — the attribution profiler
// depends on BitsRead exactness, and the wire format depends on the
// symbols.

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// specCode derives a code from fuzz bytes. Even specs build from a
// frequency profile (always valid, shallow); odd specs interpret bytes
// as raw code lengths (often invalid, but reaches deep and under-full
// tables the frequency path cannot).
func specCode(spec []byte) *Code {
	if len(spec) < 2 {
		return nil
	}
	mode, spec := spec[0], spec[1:]
	if len(spec) > 2048 {
		spec = spec[:2048]
	}
	if mode%2 == 0 {
		freqs := make([]int64, len(spec))
		for i, b := range spec {
			freqs[i] = int64(b)
		}
		maxLen := uint8(mode/2%MaxBits) + 1
		c, err := Build(freqs, maxLen)
		if err != nil {
			return nil
		}
		return c
	}
	lengths := make([]uint8, len(spec))
	for i, b := range spec {
		lengths[i] = b % (MaxBits + 1)
	}
	c, err := FromLengths(lengths)
	if err != nil {
		return nil
	}
	return c
}

// diffDecode runs both decoders over payload and fails on any
// divergence in symbols, errors, or bit positions.
func diffDecode(t *testing.T, c *Code, payload []byte) {
	t.Helper()
	// Decode through a decoder-side rebuild, whose table FromLengths
	// builds, whichever constructor made c; the oracle walks c itself.
	dec, err := FromLengths(c.Lengths)
	if err != nil {
		t.Fatalf("decoder rebuild: %v", err)
	}
	fast := bitio.NewReaderBytes(payload)
	slow := bitio.NewReaderBytes(payload)
	for step := 0; ; step++ {
		s1, e1 := dec.Decode(fast)
		s2, e2 := c.DecodeSlow(slow)
		if e1 != e2 {
			t.Fatalf("step %d: error divergence: fast=%v slow=%v", step, e1, e2)
		}
		if e1 == nil && s1 != s2 {
			t.Fatalf("step %d: symbol divergence: fast=%d slow=%d", step, s1, s2)
		}
		if fast.BitsRead() != slow.BitsRead() {
			t.Fatalf("step %d: bit-position divergence: fast=%d slow=%d",
				step, fast.BitsRead(), slow.BitsRead())
		}
		if e1 != nil {
			return
		}
	}
}

func FuzzDecodeVsSlow(f *testing.F) {
	f.Add([]byte{0, 5, 3, 2, 1, 1}, []byte{0xA7, 0x3B, 0xFF, 0x00})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{3, 2, 2, 2, 2}, []byte{0x1B, 0xE4})
	// Deep-code seed: two maximal-length siblings under a skewed tree.
	deep := []byte{1}
	for i := 0; i < 31; i++ {
		deep = append(deep, byte(i+1))
	}
	deep = append(deep, 32, 32)
	f.Add(deep, []byte{0xFF, 0xFF, 0xFF, 0xFE, 0x01, 0x80})
	f.Fuzz(func(t *testing.T, spec []byte, payload []byte) {
		c := specCode(spec)
		if c == nil {
			t.Skip()
		}
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		diffDecode(t, c, payload)
	})
}

// TestDecodeVsSlowRandom is the always-on slice of the differential
// check: random skewed codes over coherent encoded streams plus junk
// tails, so `go test` exercises the oracle without the fuzzer.
func TestDecodeVsSlowRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300) + 2
		freqs := make([]int64, n)
		for s := range freqs {
			// Zipf-ish skew produces a wide spread of code lengths.
			freqs[s] = int64(rng.Intn(1<<uint(rng.Intn(16))) + 1)
		}
		// At least ceil(log2(n)) bits so limitLengths can always repair.
		maxLen := uint8(rng.Intn(MaxBits-9) + 10)
		c, err := Build(freqs, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		bw := new(bitio.Writer)
		for i := 0; i < 500; i++ {
			s := rng.Intn(n)
			if c.CodeLen(s) == 0 {
				continue
			}
			if err := c.Encode(bw, s); err != nil {
				t.Fatal(err)
			}
		}
		payload := bw.Bytes()
		// Half the trials append garbage so the tail exercises the
		// error paths too.
		if trial%2 == 0 {
			junk := make([]byte, rng.Intn(16))
			rng.Read(junk)
			payload = append(payload, junk...)
		}
		diffDecode(t, c, payload)
	}
}

// TestDeepCodeFallback pins the slow-path fallback: a code deeper than
// rootBitsMax+subBitsMax still decodes correctly and bit-exactly.
func TestDeepCodeFallback(t *testing.T) {
	// Chain of lengths 1..31 plus two 32-bit siblings is a complete
	// code with codes far past the table budget depth.
	var lengths []uint8
	for i := 1; i <= 31; i++ {
		lengths = append(lengths, uint8(i))
	}
	lengths = append(lengths, 32, 32)
	c, err := FromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	want := []int{0, 31, 32, 15, 30, 0, 32}
	for _, s := range want {
		if err := c.Encode(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	diffDecode(t, c, bw.Bytes())
	br := bitio.NewReaderBytes(bw.Bytes())
	for i, s := range want {
		got, err := c.Decode(br)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != s {
			t.Fatalf("symbol %d: got %d, want %d", i, got, s)
		}
	}
}
