// Package bitio provides MSB-first bit-granular readers and writers over
// byte slices, used by every entropy coder in this repository (Huffman,
// arithmetic, and the wire/BRISC container formats).
//
// Bits are packed most-significant-bit first within each byte, so a
// stream written as WriteBit(1), WriteBit(0), WriteBit(1) occupies the
// top three bits of the first output byte (0b101xxxxx). This matches the
// canonical-Huffman convention in internal/huffman, where codes compare
// lexicographically as left-justified bit strings.
//
// Both directions run on a 64-bit accumulator: the Writer packs bits
// left-justified into a word and appends each completed word to a byte
// slice it owns, and the Reader refills its word from the caller's
// slice, a word at a time where eight bytes remain.
package bitio

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrOverflow reports a bit count over 64: ReadBits returns it, and
// WriteBits panics with it, since a writer's widths come from code.
var ErrOverflow = errors.New("bitio: bit count out of range")

// Writer accumulates bits MSB-first and appends whole bytes to a slice
// it owns. The zero value is ready to use.
//
// Invariant: acc holds nacc valid bits left-justified (bit 63 is the
// oldest pending bit) and every bit below them is zero, so Bytes can pad
// by rounding nacc up. The accumulator fills to a complete 64-bit word
// before it lands in buf, eight bytes per append instead of one — the
// write-side mirror of the Reader's word-at-a-time refill.
type Writer struct {
	acc  uint64
	nacc uint // 0..63 between calls
	buf  []byte
}

// Reset empties the Writer, keeping its grown storage, so one Writer
// can encode many streams without reallocating. Slices returned by
// Bytes before the Reset are overwritten by later writes.
func (bw *Writer) Reset() {
	bw.acc, bw.nacc = 0, 0
	bw.buf = bw.buf[:0]
}

// spillAligned moves the accumulator's complete bytes into buf.
// Callers must hold a byte-aligned accumulator (nacc divisible by 8).
func (bw *Writer) spillAligned() {
	for bw.nacc > 0 {
		bw.buf = append(bw.buf, byte(bw.acc>>56))
		bw.acc <<= 8
		bw.nacc -= 8
	}
}

// WriteBit appends a single bit (any nonzero b counts as 1).
func (bw *Writer) WriteBit(b uint) {
	if b != 0 {
		bw.acc |= 1 << (63 - bw.nacc)
	}
	bw.nacc++
	if bw.nacc == 64 {
		bw.buf = binary.BigEndian.AppendUint64(bw.buf, bw.acc)
		bw.acc, bw.nacc = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. It
// panics if n exceeds 64.
func (bw *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(ErrOverflow)
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if bw.nacc+n < 64 {
		bw.acc |= v << (64 - bw.nacc - n)
		bw.nacc += n
		return
	}
	// The value fills (or straddles) the accumulator: the top bits
	// complete the current word, which lands whole, and the k leftover
	// bits start a fresh one. (Shifts by 64 yield 0 in Go, so k == 0
	// needs no special case.)
	k := bw.nacc + n - 64
	bw.acc |= v >> k
	bw.buf = binary.BigEndian.AppendUint64(bw.buf, bw.acc)
	bw.acc = v << (64 - k)
	bw.nacc = k
}

// WriteBytes appends len(p) whole bytes. When the stream is
// byte-aligned the accumulator's pending bytes spill once and the
// payload lands as a single bulk append.
func (bw *Writer) WriteBytes(p []byte) {
	if bw.nacc&7 == 0 {
		bw.spillAligned()
		bw.buf = append(bw.buf, p...)
		return
	}
	for _, b := range p {
		bw.WriteBits(uint64(b), 8)
	}
}

// Bytes pads the current partial byte with zero bits and returns
// everything written since the last Reset. It is safe to call Bytes on
// an already byte-aligned stream, and writing may continue afterwards.
// The result aliases the Writer's storage: it stays valid until the
// next Reset.
func (bw *Writer) Bytes() []byte {
	// Low accumulator bits are already zero (see invariant), so
	// rounding up to a whole byte is the padding.
	bw.nacc = (bw.nacc + 7) &^ 7
	bw.spillAligned()
	return bw.buf
}

// Reader consumes bits MSB-first from a byte slice, refilling a 64-bit
// accumulator a word at a time.
//
// Invariant: acc holds nacc valid bits left-justified (bit 63 is the
// next bit to be read) and every bit below them is zero.
type Reader struct {
	acc   uint64
	nacc  uint
	data  []byte // the input; data[pos:] is not yet in acc
	pos   int
	count int64
}

// NewReaderBytes returns a Reader that unpacks bits directly from data
// without copying.
func NewReaderBytes(data []byte) *Reader {
	return &Reader{data: data}
}

// refill tops the accumulator up from the input, a whole word at a time
// when the accumulator is empty.
func (br *Reader) refill() {
	if br.nacc == 0 && len(br.data)-br.pos >= 8 {
		br.acc = binary.BigEndian.Uint64(br.data[br.pos:])
		br.pos += 8
		br.nacc = 64
		return
	}
	for br.nacc <= 56 && br.pos < len(br.data) {
		br.acc |= uint64(br.data[br.pos]) << (56 - br.nacc)
		br.pos++
		br.nacc += 8
	}
}

// ReadBit returns the next bit (0 or 1). At end of input it returns
// io.EOF.
func (br *Reader) ReadBit() (uint, error) {
	if br.nacc == 0 {
		br.refill()
		if br.nacc == 0 {
			return 0, io.EOF
		}
	}
	b := uint(br.acc >> 63)
	br.acc <<= 1
	br.nacc--
	br.count++
	return b, nil
}

// ReadBits reads n bits and returns them right-justified. On short
// input it consumes whatever bits remain (reflected by BitsRead) and
// returns an error.
func (br *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrOverflow
	}
	if n != 0 && br.nacc >= n {
		v := br.acc >> (64 - n)
		br.acc <<= n
		br.nacc -= n
		br.count += int64(n)
		return v, nil
	}
	var v uint64
	for n > 0 {
		if br.nacc == 0 {
			br.refill()
			if br.nacc == 0 {
				return 0, io.EOF
			}
		}
		take := n
		if take > br.nacc {
			take = br.nacc
		}
		v = v<<take | br.acc>>(64-take)
		br.acc <<= take
		br.nacc -= take
		br.count += int64(take)
		n -= take
	}
	return v, nil
}

// ReadByte reads 8 bits.
func (br *Reader) ReadByte() (byte, error) {
	v, err := br.ReadBits(8)
	return byte(v), err
}

// ReadBytes fills p with the next len(p)*8 bits. When the stream is
// byte-aligned the bulk of the copy bypasses the accumulator. On short
// input it fills what it can and returns an error.
func (br *Reader) ReadBytes(p []byte) error {
	if br.nacc%8 != 0 {
		for i := range p {
			v, err := br.ReadBits(8)
			if err != nil {
				return err
			}
			p[i] = byte(v)
		}
		return nil
	}
	i := 0
	for i < len(p) && br.nacc >= 8 {
		p[i] = byte(br.acc >> 56)
		br.acc <<= 8
		br.nacc -= 8
		br.count += 8
		i++
	}
	n := copy(p[i:], br.data[br.pos:])
	br.pos += n
	br.count += 8 * int64(n)
	if i+n < len(p) {
		return io.EOF
	}
	return nil
}

// ReadSlice returns the next n bytes. On a byte-aligned Reader they are
// a slice of its input, not a copy; otherwise ReadSlice copies them as
// ReadBytes does. On short input it consumes what remains and returns
// an error.
func (br *Reader) ReadSlice(n int) ([]byte, error) {
	if br.nacc%8 != 0 {
		p := make([]byte, n)
		return p, br.ReadBytes(p)
	}
	at := br.pos - int(br.nacc/8) // first byte not yet consumed
	br.acc, br.nacc = 0, 0
	if n > len(br.data)-at {
		br.count += 8 * int64(len(br.data)-at)
		br.pos = len(br.data)
		return nil, io.EOF
	}
	br.count += 8 * int64(n)
	br.pos = at + n
	return br.data[at:br.pos:br.pos], nil
}

// Peek returns the next n bits (n <= 56) right-justified without
// consuming them, plus the number of bits actually available. Past end
// of input the missing low bits read as zero; callers must not Skip
// more than the reported count.
func (br *Reader) Peek(n uint) (uint64, uint) {
	if br.nacc < n {
		br.refill()
	}
	if n == 0 {
		return 0, 0
	}
	m := br.nacc
	if m > n {
		m = n
	}
	return br.acc >> (64 - n), m
}

// Skip consumes n bits previously observed via Peek. n must not exceed
// the available count Peek reported.
func (br *Reader) Skip(n uint) {
	br.acc <<= n
	br.nacc -= n
	br.count += int64(n)
}

// BitsRead reports the total number of bits consumed so far.
func (br *Reader) BitsRead() int64 { return br.count }

// Lend hands a slice-backed Reader's bit buffer to a decode loop that
// keeps it in locals: the accumulator (valid bits left-justified, zeros
// below), its valid-bit count, the input, and the position in data of
// the first byte not yet in acc. The loop consumes bits by shifting acc
// and lowering n, tops acc up with Refill, and hands the state back with
// Restore before the Reader is used again.
func (br *Reader) Lend() (acc uint64, n uint, data []byte, pos int) {
	return br.acc, br.nacc, br.data, br.pos
}

// Restore takes back the bit buffer Lend handed out, as the loop left
// it, and counts the bits the loop consumed.
func (br *Reader) Restore(acc uint64, n uint, pos int) {
	br.count += 8*int64(pos-br.pos) - int64(n) + int64(br.nacc)
	br.acc, br.nacc, br.pos = acc, n, pos
}

// Refill is the Reader's refill on lent state: it moves whole bytes of
// data from pos into acc until acc holds at least 57 valid bits or data
// runs out, keeping the bits below the valid ones zero.
func Refill(acc uint64, n uint, data []byte, pos int) (uint64, uint, int) {
	if pos+8 <= len(data) {
		k := (64 - n) &^ 7 // bits of whole bytes that fit
		w := binary.BigEndian.Uint64(data[pos:]) >> (64 - k)
		return acc | w<<(64-n-k), n + k, pos + int(k>>3)
	}
	for n <= 56 && pos < len(data) {
		acc |= uint64(data[pos]) << (56 - n)
		pos++
		n += 8
	}
	return acc, n, pos
}

// Align discards bits up to the next byte boundary.
func (br *Reader) Align() {
	if pad := uint(-br.count & 7); pad > 0 && br.nacc >= pad {
		br.Skip(pad)
	}
}
