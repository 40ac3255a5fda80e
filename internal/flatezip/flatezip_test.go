package flatezip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := Compress(src)
	back, err := DecompressLimit(comp, 0)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(back), len(src))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	comp := roundTrip(t, nil)
	if len(comp) == 0 {
		t.Error("empty input should still produce a container")
	}
}

func TestSingleByte(t *testing.T) {
	roundTrip(t, []byte{42})
}

func TestAllSameByte(t *testing.T) {
	src := bytes.Repeat([]byte{'x'}, 100000)
	comp := roundTrip(t, src)
	if len(comp) > len(src)/100 {
		t.Errorf("highly repetitive input compressed to %d bytes (src %d); expected >100x", len(comp), len(src))
	}
}

func TestTextCompresses(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	comp := roundTrip(t, src)
	if float64(len(comp)) > 0.2*float64(len(src)) {
		t.Errorf("repetitive text ratio %.3f, expected < 0.2", float64(len(comp))/float64(len(src)))
	}
}

func TestCodeLikeInput(t *testing.T) {
	// Synthetic "machine code": repeating instruction-like 4-byte words
	// with varying immediate fields — the workload class the paper cares
	// about. Expect a factor between roughly 2 and 3, like gzip on code.
	rng := rand.New(rand.NewSource(7))
	var src []byte
	ops := []byte{0x10, 0x11, 0x24, 0x31, 0x40}
	for i := 0; i < 20000; i++ {
		src = append(src, ops[rng.Intn(len(ops))], byte(rng.Intn(16)), byte(rng.Intn(16)), byte(rng.Intn(8)*4))
	}
	comp := roundTrip(t, src)
	ratio := float64(len(src)) / float64(len(comp))
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("code-like input factor %.2f, expected in [1.5, 6]", ratio)
	}
}

func TestIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := make([]byte, 50000)
	rng.Read(src)
	comp := roundTrip(t, src)
	// Random data may expand slightly but not much.
	if float64(len(comp)) > 1.1*float64(len(src)) {
		t.Errorf("random input expanded to %.3fx", float64(len(comp))/float64(len(src)))
	}
}

func TestLongMatches(t *testing.T) {
	// Matches longer than maxMatch must be split correctly.
	src := append(bytes.Repeat([]byte("abcd"), 300), bytes.Repeat([]byte("abcd"), 300)...)
	roundTrip(t, src)
}

func TestFarDistances(t *testing.T) {
	// A match just inside the 32K window.
	var src []byte
	src = append(src, []byte("HEADER-PATTERN-1234567890")...)
	filler := make([]byte, 32000)
	rng := rand.New(rand.NewSource(3))
	rng.Read(filler)
	src = append(src, filler...)
	src = append(src, []byte("HEADER-PATTERN-1234567890")...)
	roundTrip(t, src)
}

func TestCorruptInputs(t *testing.T) {
	if _, err := DecompressLimit([]byte("nope"), 0); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecompressLimit(nil, 0); err == nil {
		t.Error("empty input accepted")
	}
	good := Compress([]byte("hello hello hello hello"))
	// Truncations must error, never panic.
	for cut := 1; cut < len(good); cut += 3 {
		if _, err := DecompressLimit(good[:cut], 0); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Flipped body bytes must not panic (some flips still decode to the
	// right length), and every flip and cut of a larger stream decodes
	// to the output or the error text of decompressRef.
	for i := len(magic) + 1; i < len(good); i += 2 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x55
		_, _ = DecompressLimit(bad, 0)
	}
	big := Compress([]byte(strings.Repeat("int salt(int j) { return j * 3 + pepper(j - 1); }\n", 40)))
	for i := len(magic); i < len(big); i++ {
		flipped := append([]byte(nil), big...)
		flipped[i] ^= 0xA5
		for _, bad := range [][]byte{flipped, big[:i]} {
			got, gerr := DecompressLimit(bad, 0)
			want, werr := decompressRef(bad)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
				t.Fatalf("byte %d: error %v, reference %v", i, gerr, werr)
			}
		}
	}
}

// TestDeclaredSizeBoundsAllocation: a tiny stream whose size header
// declares 2 GiB fails having allocated what its tokens could fill,
// not what the header claims.
func TestDeclaredSizeBoundsAllocation(t *testing.T) {
	fz := Compress([]byte("a stream far smaller than it says"))
	_, n := binary.Uvarint(fz[len(magic):])
	bomb := binary.AppendUvarint(append([]byte(nil), fz[:len(magic)]...), 1<<31)
	bomb = append(bomb, fz[len(magic)+n:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecompressLimit(bomb, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%d-byte stream declaring 2 GiB: %v, want ErrCorrupt", len(bomb), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes before rejecting a %d-byte stream", grew, len(bomb))
	}
}

// TestTableSizeBoundsAllocation: a literal/length table whose 4-byte
// symbol count declares 2^24 symbols fails before its length array is
// allocated, since the alphabet has only numLitLen symbols.
func TestTableSizeBoundsAllocation(t *testing.T) {
	bomb := binary.AppendUvarint(append([]byte(nil), magic[:]...), 100)
	bomb = binary.AppendUvarint(bomb, 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecompressLimit(bomb, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("table declaring 2^24 symbols: %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes before rejecting a %d-byte stream", grew, len(bomb))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4000)
		src := make([]byte, n)
		switch kind % 3 {
		case 0: // random
			rng.Read(src)
		case 1: // low-entropy
			for i := range src {
				src[i] = byte(rng.Intn(4))
			}
		case 2: // structured
			pat := make([]byte, rng.Intn(20)+1)
			rng.Read(pat)
			for i := range src {
				src[i] = pat[i%len(pat)]
			}
		}
		back, err := DecompressLimit(Compress(src), 0)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	b.ReportAllocs()
	src := []byte(strings.Repeat("int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }\n", 1000))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	b.ReportAllocs()
	src := []byte(strings.Repeat("int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }\n", 1000))
	comp := Compress(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressLimit(comp, 0); err != nil {
			b.Fatal(err)
		}
	}
}
