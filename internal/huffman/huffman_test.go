package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestBuildSimple(t *testing.T) {
	// Classic skewed distribution: more frequent symbols get shorter codes.
	freqs := []int64{45, 13, 12, 16, 9, 5}
	c, err := Build(freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeLen(0) >= c.CodeLen(5) {
		t.Errorf("most frequent symbol len %d should be < rarest len %d", c.CodeLen(0), c.CodeLen(5))
	}
	// Kraft equality for a complete code.
	var kraft float64
	for s := range freqs {
		kraft += 1 / float64(int64(1)<<c.CodeLen(s))
	}
	if kraft != 1.0 {
		t.Errorf("Kraft sum = %v, want 1.0", kraft)
	}
}

func TestSingleSymbol(t *testing.T) {
	c, err := Build([]int64{0, 7, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeLen(1) != 1 {
		t.Errorf("single-symbol code length = %d, want 1", c.CodeLen(1))
	}
	bw := new(bitio.Writer)
	for i := 0; i < 5; i++ {
		if err := c.Encode(bw, 1); err != nil {
			t.Fatal(err)
		}
	}
	br := bitio.NewReaderBytes(bw.Bytes())
	for i := 0; i < 5; i++ {
		s, err := c.Decode(br)
		if err != nil || s != 1 {
			t.Fatalf("decode %d: got %d, %v", i, s, err)
		}
	}
}

func TestNoSymbols(t *testing.T) {
	if _, err := Build([]int64{0, 0, 0}, 0); err != ErrNoSymbols {
		t.Errorf("err = %v, want ErrNoSymbols", err)
	}
}

func TestNegativeFrequency(t *testing.T) {
	if _, err := Build([]int64{1, -2}, 0); err == nil {
		t.Error("expected error for negative frequency")
	}
}

func TestUnknownSymbol(t *testing.T) {
	c, err := Build([]int64{1, 1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	if err := c.Encode(bw, 2); err == nil {
		t.Error("expected error encoding zero-frequency symbol")
	}
	if err := c.Encode(bw, 99); err == nil {
		t.Error("expected error encoding out-of-range symbol")
	}
}

func TestRoundTrip(t *testing.T) {
	freqs := []int64{100, 50, 25, 12, 6, 3, 2, 1}
	c, err := Build(freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 1, 1, 2, 7}
	bw := new(bitio.Writer)
	for _, s := range msg {
		if err := c.Encode(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	br := bitio.NewReaderBytes(bw.Bytes())
	for i, want := range msg {
		s, err := c.Decode(br)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if s != want {
			t.Fatalf("decode %d = %d, want %d", i, s, want)
		}
	}
}

// TestReadLengthsAlphabetBound: a table declaring more symbols than the
// caller's bound fails with ErrBadLengths, and one at the bound reads.
func TestReadLengthsAlphabetBound(t *testing.T) {
	c, err := Build([]int64{3, 1, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	c.WriteLengths(bw)
	if _, err := ReadLengths(bitio.NewReaderBytes(bw.Bytes()), nil, 4); err != nil {
		t.Fatalf("4-symbol table under bound 4: %v", err)
	}
	if _, err := ReadLengths(bitio.NewReaderBytes(bw.Bytes()), nil, 3); err != ErrBadLengths {
		t.Fatalf("4-symbol table under bound 3: %v, want ErrBadLengths", err)
	}
}

func TestLengthsRoundTrip(t *testing.T) {
	freqs := []int64{9, 0, 4, 4, 0, 0, 1, 2, 88}
	c, err := Build(freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	c.WriteLengths(bw)
	c2, err := ReadLengths(bitio.NewReaderBytes(bw.Bytes()), nil, MaxSymbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Lengths) != len(c.Lengths) {
		t.Fatalf("length table size mismatch: %d vs %d", len(c2.Lengths), len(c.Lengths))
	}
	for s := range c.Lengths {
		if c.Lengths[s] != c2.Lengths[s] {
			t.Errorf("symbol %d: length %d vs %d", s, c.Lengths[s], c2.Lengths[s])
		}
		if c.codes[s] != c2.codes[s] {
			t.Errorf("symbol %d: code %b vs %b", s, c.codes[s], c2.codes[s])
		}
	}
}

func TestLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies force a deep tree without limiting.
	freqs := make([]int64, 24)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	c, err := Build(freqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s, l := range c.Lengths {
		if l > 8 {
			t.Errorf("symbol %d length %d exceeds limit 8", s, l)
		}
	}
	// The limited code must still decode what it encodes.
	bw := new(bitio.Writer)
	for s := range freqs {
		if err := c.Encode(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	br := bitio.NewReaderBytes(bw.Bytes())
	for s := range freqs {
		got, err := c.Decode(br)
		if err != nil || got != s {
			t.Fatalf("decode symbol %d: got %d, %v", s, got, err)
		}
	}
}

func TestBadLengths(t *testing.T) {
	// Oversubscribed: three codes of length 1 violate Kraft.
	if _, err := FromLengths([]uint8{1, 1, 1}); err != ErrBadLengths {
		t.Errorf("err = %v, want ErrBadLengths", err)
	}
}

// TestEncodedSize: coding a frequency profile costs exactly the sum of
// frequency × code length bits.
func TestEncodedSize(t *testing.T) {
	freqs := []int64{4, 2, 1, 1}
	c, err := Build(freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	bw := new(bitio.Writer)
	var want int
	for s, f := range freqs {
		for ; f > 0; f-- {
			if err := c.Encode(bw, s); err != nil {
				t.Fatal(err)
			}
		}
		want += int(freqs[s]) * int(c.CodeLen(s))
	}
	if got := 8 * len(bw.Bytes()); got != (want+7)&^7 {
		t.Errorf("encoded %d bits (padded), want %d", got, want)
	}
}

func TestOptimality(t *testing.T) {
	// For a uniform power-of-two alphabet the code must be fixed-length.
	freqs := []int64{5, 5, 5, 5, 5, 5, 5, 5}
	c, err := Build(freqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := range freqs {
		if c.CodeLen(s) != 3 {
			t.Errorf("uniform code length for %d = %d, want 3", s, c.CodeLen(s))
		}
	}
}

// TestQuickRoundTrip: random frequency tables and random messages
// drawn from present symbols always round-trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		freqs := make([]int64, n)
		var present []int
		for s := range freqs {
			if rng.Intn(3) > 0 {
				freqs[s] = int64(rng.Intn(1000) + 1)
				present = append(present, s)
			}
		}
		if len(present) == 0 {
			freqs[0] = 1
			present = append(present, 0)
		}
		c, err := Build(freqs, 15)
		if err != nil {
			return false
		}
		msg := make([]int, rng.Intn(500))
		for i := range msg {
			msg[i] = present[rng.Intn(len(present))]
		}
		bw := new(bitio.Writer)
		for _, s := range msg {
			if err := c.Encode(bw, s); err != nil {
				return false
			}
		}
		br := bitio.NewReaderBytes(bw.Bytes())
		for _, want := range msg {
			s, err := c.Decode(br)
			if err != nil || s != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLengthTableTransport: decoder rebuilt from serialized lengths
// always matches the encoder.
func TestQuickLengthTableTransport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 2
		freqs := make([]int64, n)
		for s := range freqs {
			freqs[s] = int64(rng.Intn(50))
		}
		freqs[0]++ // ensure at least one symbol
		c, err := Build(freqs, 0)
		if err != nil {
			return false
		}
		bw := new(bitio.Writer)
		c.WriteLengths(bw)
		c2, err := ReadLengths(bitio.NewReaderBytes(bw.Bytes()), nil, MaxSymbols)
		if err != nil {
			return false
		}
		for s := range c.Lengths {
			if c.Lengths[s] != c2.Lengths[s] || c.codes[s] != c2.codes[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	b.ReportAllocs()
	freqs := make([]int64, 256)
	rng := rand.New(rand.NewSource(1))
	for s := range freqs {
		freqs[s] = int64(rng.Intn(1000) + 1)
	}
	c, err := Build(freqs, 15)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]int, 64*1024)
	for i := range msg {
		msg[i] = rng.Intn(256)
	}
	b.ResetTimer()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		bw := new(bitio.Writer)
		for _, s := range msg {
			if err := c.Encode(bw, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	b.ReportAllocs()
	freqs := make([]int64, 256)
	rng := rand.New(rand.NewSource(1))
	for s := range freqs {
		freqs[s] = int64(rng.Intn(1000) + 1)
	}
	c, err := Build(freqs, 15)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]int, 64*1024)
	for i := range msg {
		msg[i] = rng.Intn(256)
	}
	bw := new(bitio.Writer)
	for _, s := range msg {
		if err := c.Encode(bw, s); err != nil {
			b.Fatal(err)
		}
	}
	data := bw.Bytes()
	dec, err := FromLengths(c.Lengths) // the decoder-side code, with its table
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		br := bitio.NewReaderBytes(data)
		for range msg {
			if _, err := dec.Decode(br); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestArenaCodesDisjoint: codes read from one Arena in turn, as a
// container's segments are, each decode their own payload after all of
// them are read, so no two share storage.
func TestArenaCodesDisjoint(t *testing.T) {
	type job struct {
		table, payload []byte
		want           []int
	}
	rng := rand.New(rand.NewSource(5))
	jobs := make([]job, 160)
	for i := range jobs {
		freqs := make([]int64, rng.Intn(3000)+2)
		for s := range freqs {
			freqs[s] = int64(rng.Intn(1 << uint(rng.Intn(14))))
		}
		freqs[0]++
		c, err := Build(freqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		tw, pw := new(bitio.Writer), new(bitio.Writer)
		c.WriteLengths(tw)
		for k := 0; k < 200; k++ {
			s := rng.Intn(len(freqs))
			if c.CodeLen(s) > 0 {
				jobs[i].want = append(jobs[i].want, s)
				if err := c.Encode(pw, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		jobs[i].table, jobs[i].payload = tw.Bytes(), pw.Bytes()
	}
	var arena Arena
	codes := make([]*Code, len(jobs))
	for i := range jobs {
		c, err := ReadLengths(bitio.NewReaderBytes(jobs[i].table), &arena, MaxSymbols)
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = c
	}
	for i, c := range codes {
		br := bitio.NewReaderBytes(jobs[i].payload)
		for k, want := range jobs[i].want {
			if got, err := c.Decode(br); err != nil || got != want {
				t.Fatalf("code %d symbol %d: got %d, %v; want %d", i, k, got, err, want)
			}
		}
	}
}
