package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitsWritten is the number of bits a Writer holds, buffered or
// pending.
func bitsWritten(bw *Writer) int64 { return 8*int64(len(bw.buf)) + int64(bw.nacc) }

func TestWriteReadBits(t *testing.T) {
	var bw Writer
	bw.WriteBits(0b101, 3)
	bw.WriteBits(0xAB, 8)
	bw.WriteBits(0x3FFFF, 18)
	if got, want := bitsWritten(&bw), int64(29); got != want {
		t.Errorf("bits written = %d, want %d", got, want)
	}
	out := bw.Bytes()
	if got, want := len(out), 4; got != want {
		t.Fatalf("output length = %d, want %d", got, want)
	}

	br := NewReaderBytes(out)
	v, err := br.ReadBits(3)
	if err != nil || v != 0b101 {
		t.Fatalf("ReadBits(3) = %v, %v; want 5", v, err)
	}
	v, err = br.ReadBits(8)
	if err != nil || v != 0xAB {
		t.Fatalf("ReadBits(8) = %#x, %v; want 0xAB", v, err)
	}
	v, err = br.ReadBits(18)
	if err != nil || v != 0x3FFFF {
		t.Fatalf("ReadBits(18) = %#x, %v; want 0x3FFFF", v, err)
	}
}

func TestMSBFirstPacking(t *testing.T) {
	var bw Writer
	for _, b := range []uint{1, 0, 1} {
		bw.WriteBit(b)
	}
	if got, want := bw.Bytes()[0], byte(0b10100000); got != want {
		t.Errorf("packed byte = %08b, want %08b", got, want)
	}
}

// TestFlushIdempotent: padding an aligned stream adds nothing, so a
// second Bytes returns the same bytes.
func TestFlushIdempotent(t *testing.T) {
	var bw Writer
	bw.WriteBits(0x7F, 8)
	bw.Bytes()
	if n := len(bw.Bytes()); n != 1 {
		t.Errorf("second Bytes grew the output: len=%d", n)
	}
}

func TestReadEOF(t *testing.T) {
	br := NewReaderBytes(nil)
	if _, err := br.ReadBit(); err != io.EOF {
		t.Errorf("ReadBit at EOF = %v, want io.EOF", err)
	}
}

func TestOverflow(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r != ErrOverflow {
				t.Errorf("WriteBits(65) panicked with %v, want ErrOverflow", r)
			}
		}()
		var bw Writer
		bw.WriteBits(0, 65)
	}()
	br := NewReaderBytes(nil)
	if _, err := br.ReadBits(65); err != ErrOverflow {
		t.Errorf("ReadBits(65) err = %v, want ErrOverflow", err)
	}
}

func TestAlign(t *testing.T) {
	var bw Writer
	bw.WriteBits(0b1, 1)
	bw.Bytes()
	bw.WriteBits(0xCD, 8)

	br := NewReaderBytes(bw.Bytes())
	if _, err := br.ReadBit(); err != nil {
		t.Fatal(err)
	}
	br.Align()
	b, err := br.ReadByte()
	if err != nil || b != 0xCD {
		t.Fatalf("after Align, ReadByte = %#x, %v; want 0xCD", b, err)
	}
	if got := br.BitsRead(); got != 16 {
		t.Errorf("BitsRead = %d, want 16", got)
	}
}

// TestRoundTripQuick checks that any sequence of (value, width) pairs
// written and re-read yields the original values.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, int(n)%64+1)
		for i := range items {
			width := uint(rng.Intn(64) + 1)
			items[i] = item{v: rng.Uint64() & (^uint64(0) >> (64 - width)), n: width}
		}
		var bw Writer
		for _, it := range items {
			bw.WriteBits(it.v, it.n)
		}
		br := NewReaderBytes(bw.Bytes())
		for _, it := range items {
			v, err := br.ReadBits(it.n)
			if err != nil || v != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroWidth(t *testing.T) {
	var bw Writer
	bw.WriteBits(0xFFFF, 0)
	if got := bitsWritten(&bw); got != 0 {
		t.Errorf("bits written after 0-bit write = %d, want 0", got)
	}
	if n := len(bw.Bytes()); n != 0 {
		t.Errorf("0-bit write produced %d bytes", n)
	}
	br := NewReaderBytes(nil)
	if v, err := br.ReadBits(0); err != nil || v != 0 {
		t.Errorf("ReadBits(0) at EOF = %d, %v; want 0, nil", v, err)
	}
	if got := br.BitsRead(); got != 0 {
		t.Errorf("BitsRead after 0-bit read = %d, want 0", got)
	}
}

func TestFullWidth(t *testing.T) {
	var bw Writer
	const v = uint64(0xDEADBEEFCAFEF00D)
	// A 3-bit prefix forces the 64-bit value to straddle accumulator
	// words on both ends.
	bw.WriteBits(0b101, 3)
	bw.WriteBits(v, 64)
	bw.WriteBits(^uint64(0), 64)
	if got := bitsWritten(&bw); got != 131 {
		t.Errorf("bits written = %d, want 131", got)
	}
	br := NewReaderBytes(bw.Bytes())
	if got, err := br.ReadBits(3); err != nil || got != 0b101 {
		t.Fatalf("prefix = %d, %v", got, err)
	}
	if got, err := br.ReadBits(64); err != nil || got != v {
		t.Fatalf("ReadBits(64) = %#x, %v; want %#x", got, err, v)
	}
	if got, err := br.ReadBits(64); err != nil || got != ^uint64(0) {
		t.Fatalf("second ReadBits(64) = %#x, %v", got, err)
	}
	if got := br.BitsRead(); got != 131 {
		t.Errorf("BitsRead = %d, want 131", got)
	}
}

func TestAlignAfterPartialBytes(t *testing.T) {
	// Alignment from every in-byte phase, including already-aligned.
	for phase := uint(0); phase < 8; phase++ {
		var bw Writer
		bw.WriteBits(0, phase)
		bw.Bytes()
		bw.WriteBits(0xA5, 8)
		br := NewReaderBytes(bw.Bytes())
		if phase > 0 {
			if _, err := br.ReadBits(phase); err != nil {
				t.Fatal(err)
			}
		}
		br.Align()
		wantBits := int64(0)
		if phase > 0 {
			wantBits = 8
		}
		if got := br.BitsRead(); got != wantBits {
			t.Errorf("phase %d: BitsRead after Align = %d, want %d", phase, got, wantBits)
		}
		if b, err := br.ReadByte(); err != nil || b != 0xA5 {
			t.Errorf("phase %d: ReadByte after Align = %#x, %v", phase, b, err)
		}
	}
}

func TestBitsReadExactOnShortInput(t *testing.T) {
	// A failed wide read still accounts for the bits it consumed, like
	// the byte-at-a-time reader did.
	br := NewReaderBytes([]byte{0xFF})
	if _, err := br.ReadBits(13); err != io.EOF {
		t.Fatalf("ReadBits(13) on 8-bit input = %v, want io.EOF", err)
	}
	if got := br.BitsRead(); got != 8 {
		t.Errorf("BitsRead after short read = %d, want 8", got)
	}
	if _, err := br.ReadBit(); err != io.EOF {
		t.Errorf("ReadBit after EOF = %v, want io.EOF", err)
	}
}

func TestPeekSkip(t *testing.T) {
	data := []byte{0b1011_0011, 0b0101_1100, 0xF0}
	br := NewReaderBytes(data)
	if v, n := br.Peek(4); n != 4 || v != 0b1011 {
		t.Fatalf("Peek(4) = %04b, %d; want 1011, 4", v, n)
	}
	// Peek must not consume.
	if v, n := br.Peek(12); n != 12 || v != 0b1011_0011_0101 {
		t.Fatalf("Peek(12) = %012b, %d", v, n)
	}
	if got := br.BitsRead(); got != 0 {
		t.Fatalf("Peek consumed bits: BitsRead = %d", got)
	}
	br.Skip(4)
	if v, n := br.Peek(4); n != 4 || v != 0b0011 {
		t.Fatalf("after Skip(4), Peek(4) = %04b, %d", v, n)
	}
	if got := br.BitsRead(); got != 4 {
		t.Fatalf("BitsRead after Skip(4) = %d", got)
	}
	// Drain to 3 remaining bits; Peek must zero-pad and report avail.
	br.Skip(17)
	v, n := br.Peek(8)
	if n != 3 {
		t.Fatalf("Peek(8) near EOF: avail = %d, want 3", n)
	}
	if v != 0b0000_0000 {
		t.Fatalf("Peek(8) near EOF = %08b, want zero-padded 00000000", v)
	}
	br.Skip(n)
	if _, n := br.Peek(1); n != 0 {
		t.Errorf("Peek(1) at EOF: avail = %d, want 0", n)
	}
}

func TestReadWriteBytesBulk(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	for _, prefix := range []uint{0, 3, 8} {
		var bw Writer
		bw.WriteBits(0b111, prefix)
		bw.WriteBytes(payload)
		want := int64(prefix) + 8*int64(len(payload))
		if got := bitsWritten(&bw); got != want {
			t.Fatalf("prefix %d: bits written = %d, want %d", prefix, got, want)
		}
		br := NewReaderBytes(bw.Bytes())
		if prefix > 0 {
			if _, err := br.ReadBits(prefix); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, len(payload))
		if err := br.ReadBytes(got); err != nil {
			t.Fatalf("prefix %d: ReadBytes: %v", prefix, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("prefix %d: ReadBytes mismatch", prefix)
		}
		if got := br.BitsRead(); got != want {
			t.Fatalf("prefix %d: BitsRead = %d, want %d", prefix, got, want)
		}
	}
}

func TestReadBytesShortInput(t *testing.T) {
	br := NewReaderBytes([]byte{1, 2, 3})
	p := make([]byte, 5)
	if err := br.ReadBytes(p); err != io.EOF {
		t.Fatalf("ReadBytes past EOF = %v, want io.EOF", err)
	}
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Errorf("partial fill lost data: % x", p)
	}
}

// TestReaderBytesMatchesReader cross-checks ReadBits over random
// mixed-width read schedules against a reference that reads the same
// bytes one ReadBit at a time.
func TestReaderBytesMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1024)
	rng.Read(data)
	for trial := 0; trial < 50; trial++ {
		a, b := NewReaderBytes(data), NewReaderBytes(data)
		for {
			n := uint(rng.Intn(64) + 1)
			va, ea := a.ReadBits(n)
			var vb uint64
			var eb error
			for i := uint(0); i < n && eb == nil; i++ {
				var bit uint
				bit, eb = b.ReadBit()
				vb = vb<<1 | uint64(bit)
			}
			if eb != nil {
				vb = 0
			}
			if va != vb || (ea == nil) != (eb == nil) {
				t.Fatalf("trial %d width %d: ReadBits (%#x,%v) vs per-bit (%#x,%v)",
					trial, n, va, ea, vb, eb)
			}
			if a.BitsRead() != b.BitsRead() {
				t.Fatalf("BitsRead diverged: %d vs %d", a.BitsRead(), b.BitsRead())
			}
			if ea != nil {
				break
			}
		}
	}
}

func TestBitsWrittenMatchesBitsRead(t *testing.T) {
	var bw Writer
	widths := []uint{1, 7, 13, 32, 64, 3}
	var total uint
	for i, w := range widths {
		bw.WriteBits(uint64(i), w)
		total += w
	}
	if got := bitsWritten(&bw); got != int64(total) {
		t.Errorf("bits written = %d, want %d", got, total)
	}
	br := NewReaderBytes(bw.Bytes())
	for i, w := range widths {
		v, err := br.ReadBits(w)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i) {
			t.Errorf("value %d: got %d", i, v)
		}
	}
	if got := br.BitsRead(); got != int64(total) {
		t.Errorf("BitsRead = %d, want %d", got, total)
	}
}

// TestWriterReset checks that a recycled Writer produces bytes
// identical to a fresh one, with its state restarted and its grown
// storage reused.
func TestWriterReset(t *testing.T) {
	write := func(bw *Writer) []byte {
		bw.WriteBits(0b1011, 4)
		bw.WriteBytes([]byte{0xDE, 0xAD, 0xBE, 0xEF})
		bw.WriteBits(0xFFFFFFFFFFFFFFFF, 64)
		return bw.Bytes()
	}
	var fresh Writer
	want := write(&fresh)

	var bw Writer
	bw.WriteBits(0b1, 3) // a partial byte Reset must drop
	first := write(&bw)
	bw.Reset()
	if got := bitsWritten(&bw); got != 0 {
		t.Fatalf("bits written after Reset = %d, want 0", got)
	}
	second := write(&bw)
	if !bytes.Equal(second, want) {
		t.Errorf("reset writer output %x, want %x", second, want)
	}
	if &first[0] != &second[0] {
		t.Error("Reset did not keep the writer's storage")
	}
}

// TestWriterWordBoundary hits the accumulator spill edges: writes that
// land the accumulator exactly on 64 bits (the k == 0 carry case),
// straddle it by one bit, and chase a full word with unaligned bulk
// bytes. The per-bit writer is the reference.
func TestWriterWordBoundary(t *testing.T) {
	cases := [][][2]uint64{ // sequence of {value, width}
		{{0x0F0F0F0F0F0F0F0F, 64}},                          // whole word from empty
		{{0x1, 1}, {0x7FFFFFFFFFFFFFFF, 63}},                // fill to exactly 64 (k=0)
		{{0x1, 1}, {0xFFFFFFFFFFFFFFFF, 64}},                // straddle by one
		{{0x3, 2}, {0x3FFFFFFFFFFFFFFF, 62}, {0xAA, 8}},     // k=0 then continue
		{{0x12345, 17}, {0xFEDCBA9876543210, 64}, {0x5, 3}}, // straddle mid-word
		{{0x0, 7}, {0xFFFFFFFFFFFFFFFF, 57}, {0x0, 64}},     // fill, then zero word
	}
	for ci, seq := range cases {
		var fw, sw Writer
		for _, vw := range seq {
			fw.WriteBits(vw[0], uint(vw[1]))
			for i := int(vw[1]) - 1; i >= 0; i-- { // reference: bit at a time
				sw.WriteBit(uint(vw[0] >> i & 1))
			}
		}
		if bitsWritten(&fw) != bitsWritten(&sw) {
			t.Errorf("case %d: bits written %d != reference %d", ci, bitsWritten(&fw), bitsWritten(&sw))
		}
		if fast, slow := fw.Bytes(), sw.Bytes(); !bytes.Equal(fast, slow) {
			t.Errorf("case %d: WriteBits %x != per-bit reference %x", ci, fast, slow)
		}
	}
}

// TestWriteBytesUnaligned checks the bulk path agrees with the per-bit
// path at every accumulator phase, including phases that are byte-
// aligned mid-word (nacc = 8, 16, ...) where the fast path must first
// spill pending accumulator bytes.
func TestWriteBytesUnaligned(t *testing.T) {
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for phase := uint(0); phase < 24; phase++ {
		var fw, sw Writer
		fw.WriteBits(0, phase)
		sw.WriteBits(0, phase)
		fw.WriteBytes(payload)
		for _, b := range payload {
			sw.WriteBits(uint64(b), 8)
		}
		if !bytes.Equal(fw.Bytes(), sw.Bytes()) {
			t.Errorf("phase %d: WriteBytes diverges from per-byte writes", phase)
		}
	}
}

// TestLendRefillMatchesReadBits: a decode loop on lent state — reads
// of random widths up to 32 bits off the accumulator, topped up by
// Refill — sees the same bits as ReadBits, and Restore leaves the Reader
// where ReadBits would have: same BitsRead, same next bits, and the
// same error at the end of input.
func TestLendRefillMatchesReadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		lent, ref := NewReaderBytes(data), NewReaderBytes(data)
		if k := uint(rng.Intn(9)); k > 0 {
			lent.ReadBits(k) // lend an unaligned Reader too
			ref.ReadBits(k)
		}
		for round := 0; ; round++ {
			acc, n, buf, pos := lent.Lend()
			for steps := rng.Intn(8); steps > 0; steps-- {
				w := uint(rng.Intn(32) + 1)
				if n < w {
					acc, n, pos = Refill(acc, n, buf, pos)
				}
				if n < w {
					break
				}
				want, err := ref.ReadBits(w)
				if err != nil {
					t.Fatalf("trial %d: reference read failed with %d bits held", trial, n)
				}
				if got := acc >> (64 - w); got != want {
					t.Fatalf("trial %d round %d: lent %d bits %#x, ReadBits %#x", trial, round, w, got, want)
				}
				acc, n = acc<<w, n-w
			}
			lent.Restore(acc, n, pos)
			if lent.BitsRead() != ref.BitsRead() {
				t.Fatalf("trial %d round %d: BitsRead %d after Restore, want %d", trial, round, lent.BitsRead(), ref.BitsRead())
			}
			w := uint(rng.Intn(20) + 1)
			a, ea := lent.ReadBits(w)
			b, eb := ref.ReadBits(w)
			if a != b || (ea == nil) != (eb == nil) || lent.BitsRead() != ref.BitsRead() {
				t.Fatalf("trial %d round %d: ReadBits(%d) after Restore (%#x,%v) at %d, want (%#x,%v) at %d",
					trial, round, w, a, ea, lent.BitsRead(), b, eb, ref.BitsRead())
			}
			if ea != nil {
				break
			}
		}
	}
}

// TestReadSlice: on a byte-aligned Reader ReadSlice returns the input's
// own bytes; unaligned it copies what ReadBytes reads. Either way
// BitsRead and the error on short input match ReadBytes.
func TestReadSlice(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33}
	for _, skip := range []uint{0, 4, 8, 16, 72} {
		for n := 0; n <= len(data)+1; n++ {
			sr, br := NewReaderBytes(data), NewReaderBytes(data)
			for _, r := range []*Reader{sr, br} {
				r.ReadBits(skip % 64)
				r.ReadBits(skip - skip%64)
			}
			got, gerr := sr.ReadSlice(n)
			want := make([]byte, n)
			werr := br.ReadBytes(want)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("skip %d n %d: error %v, want %v", skip, n, gerr, werr)
			}
			if sr.BitsRead() != br.BitsRead() {
				t.Fatalf("skip %d n %d: ReadSlice at bit %d, ReadBytes at %d", skip, n, sr.BitsRead(), br.BitsRead())
			}
			if werr != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("skip %d n %d: got %x, want %x", skip, n, got, want)
			}
			if aligned := skip%8 == 0; aligned && n > 0 && &got[0] != &data[skip/8] {
				t.Fatalf("skip %d n %d: aligned ReadSlice copied", skip, n)
			}
		}
	}
}
