package arith

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte, order Order) []byte {
	t.Helper()
	comp := Compress(src, order)
	back, err := Decompress(comp, order, 0)
	if err != nil {
		t.Fatalf("Decompress(order=%d): %v", order, err)
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("round trip mismatch (order=%d): got %d bytes, want %d", order, len(back), len(src))
	}
	return comp
}

func TestEmpty(t *testing.T) {
	for _, o := range []Order{Order0, Order1} {
		roundTrip(t, nil, o)
	}
}

func TestSingleByte(t *testing.T) {
	for _, o := range []Order{Order0, Order1} {
		roundTrip(t, []byte{0}, o)
		roundTrip(t, []byte{255}, o)
	}
}

func TestSkewedInput(t *testing.T) {
	// 90% 'a': order-0 entropy ~0.6 bits/byte; the coder should get
	// well under 2 bits/byte after adaptation.
	rng := rand.New(rand.NewSource(11))
	src := make([]byte, 50000)
	for i := range src {
		if rng.Intn(10) == 0 {
			src[i] = byte('b' + rng.Intn(3))
		} else {
			src[i] = 'a'
		}
	}
	comp := roundTrip(t, src, Order0)
	bitsPerByte := float64(len(comp)*8) / float64(len(src))
	if bitsPerByte > 1.5 {
		t.Errorf("skewed input coded at %.2f bits/byte, expected < 1.5", bitsPerByte)
	}
}

func TestOrder1BeatsOrder0OnMarkovSource(t *testing.T) {
	// Text-like data has strong order-1 structure.
	src := []byte(strings.Repeat("the rain in spain stays mainly in the plain. ", 800))
	c0 := roundTrip(t, src, Order0)
	c1 := roundTrip(t, src, Order1)
	if len(c1) >= len(c0) {
		t.Errorf("order-1 (%d bytes) should beat order-0 (%d bytes) on text", len(c1), len(c0))
	}
}

func TestRandomDataNearlyIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]byte, 20000)
	rng.Read(src)
	comp := roundTrip(t, src, Order0)
	if float64(len(comp)) > 1.05*float64(len(src)) {
		t.Errorf("random data expanded to %.3fx", float64(len(comp))/float64(len(src)))
	}
}

func TestCorruptStreamTerminates(t *testing.T) {
	// Regression: garbage input whose implied stream never reaches the
	// EOF symbol must fail quickly instead of decoding implicit zero
	// padding out to the runaway guard.
	for _, data := range [][]byte{nil, {0}, {0xFF, 0xFF}, make([]byte, 64)} {
		for _, order := range []Order{Order0, Order1} {
			out, err := Decompress(data, order, 0)
			if err == nil && len(out) > 1<<20 {
				t.Errorf("garbage %v decoded to %d bytes without error", data, len(out))
			}
		}
	}
}

func TestQuickRoundTripBothOrders(t *testing.T) {
	f := func(src []byte, useOrder1 bool) bool {
		order := Order0
		if useOrder1 {
			order = Order1
		}
		back, err := Decompress(Compress(src, order), order, 0)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickLongAdaptive(t *testing.T) {
	// Longer streams exercise the frequency-halving rescale path.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, 3000+rng.Intn(3000))
		for i := range src {
			src[i] = byte(rng.Intn(6)) // hot alphabet drives counts up fast
		}
		back, err := Decompress(Compress(src, Order1), Order1, 0)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressOrder0(b *testing.B) {
	b.ReportAllocs()
	src := []byte(strings.Repeat("int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }\n", 200))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Compress(src, Order0)
	}
}

func BenchmarkCompressOrder1(b *testing.B) {
	b.ReportAllocs()
	src := []byte(strings.Repeat("int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }\n", 200))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Compress(src, Order1)
	}
}
