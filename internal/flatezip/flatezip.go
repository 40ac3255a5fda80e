// Package flatezip is a from-scratch LZ77 + canonical-Huffman block
// compressor, standing in for gzip in the paper's pipelines (wire-format
// step 5 and the "gzipped x86/SPARC" baselines).
//
// The design mirrors DEFLATE: a 32 KiB sliding window, hash-chain match
// finding, greedy parsing with one-token lazy matching, and a combined
// literal/length alphabet plus a distance alphabet, each coded with a
// canonical Huffman code whose length table is shipped in the header.
// The container is this repository's own (magic "FZ1\n", uvarint raw
// size, two code-length tables, token stream), so both ends of every
// experiment run the same code path.
package flatezip

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/integrity"
)

const (
	windowSize  = 32 * 1024
	minMatch    = 3
	maxMatch    = 258
	hashBits    = 15
	hashSize    = 1 << hashBits
	maxChainLen = 128 // match-finder effort; tuned for gzip-like ratios
	// Literal/length alphabet: 0..255 literals, 256 end-of-block,
	// 257..284 length codes (DEFLATE layout, 285 omitted by clamping).
	symEOB      = 256
	numLitLen   = 286
	numDistSyms = 30
)

var magic = [4]byte{'F', 'Z', '1', '\n'}

// ErrCorrupt is returned when the input is not a valid flatezip stream.
// It matches integrity.ErrCorrupt under errors.Is.
var ErrCorrupt = integrity.Alias("flatezip: corrupt input", integrity.ErrCorrupt)

// ErrTooLarge is returned by DecompressLimit when the stream's declared
// raw size exceeds the caller's cap. It also matches ErrCorrupt and
// integrity.ErrTooLarge.
var ErrTooLarge = integrity.Alias("flatezip: declared size exceeds cap",
	integrity.ErrTooLarge, ErrCorrupt)

// DEFLATE length code table: code -> (base length, extra bits).
var lengthBase = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
var lengthExtra = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}

// DEFLATE distance code table: code -> (base distance, extra bits).
var distBase = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
var distExtra = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

func lengthCode(l int) int {
	for c := len(lengthBase) - 1; c >= 0; c-- {
		if l >= lengthBase[c] {
			return c
		}
	}
	return 0
}

func distCode(d int) int {
	for c := len(distBase) - 1; c >= 0; c-- {
		if d >= distBase[c] {
			return c
		}
	}
	return 0
}

type token struct {
	lit    byte
	length int // 0 = literal token
	dist   int
}

func hash4(p []byte) uint32 {
	// Multiplicative hash over 4 bytes; only valid when len(p) >= 4.
	v := binary.LittleEndian.Uint32(p)
	return (v * 2654435761) >> (32 - hashBits)
}

// tokenize performs greedy LZ77 parsing with one-step lazy matching.
func tokenize(src []byte) []token {
	var toks []token
	head := make([]int32, hashSize)
	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}
	insert := func(pos int) {
		if pos+4 > len(src) {
			return
		}
		h := hash4(src[pos:])
		prev[pos] = head[h]
		head[h] = int32(pos)
	}
	findMatch := func(pos int) (length, dist int) {
		if pos+minMatch > len(src) || pos+4 > len(src) {
			return 0, 0
		}
		limit := pos - windowSize
		if limit < 0 {
			limit = 0
		}
		best := minMatch - 1
		bestDist := 0
		cand := head[hash4(src[pos:])]
		maxLen := len(src) - pos
		if maxLen > maxMatch {
			maxLen = maxMatch
		}
		for chain := 0; cand >= int32(limit) && cand >= 0 && chain < maxChainLen; chain++ {
			c := int(cand)
			if c < pos && src[c+best] == src[pos+best] {
				l := 0
				for l < maxLen && src[c+l] == src[pos+l] {
					l++
				}
				if l > best {
					best = l
					bestDist = pos - c
					if l == maxLen {
						break
					}
				}
			}
			cand = prev[c]
		}
		if best >= minMatch {
			return best, bestDist
		}
		return 0, 0
	}

	i := 0
	for i < len(src) {
		l, d := findMatch(i)
		if l > 0 {
			// Lazy matching: prefer a longer match starting one byte later.
			if i+1 < len(src) {
				insert(i)
				l2, d2 := findMatch(i + 1)
				if l2 > l+1 {
					toks = append(toks, token{lit: src[i]})
					i++
					l, d = l2, d2
				}
			}
			toks = append(toks, token{length: l, dist: d})
			end := i + l
			for ; i < end; i++ {
				insert(i)
			}
		} else {
			toks = append(toks, token{lit: src[i]})
			insert(i)
			i++
		}
	}
	return toks
}

// Compress returns the flatezip encoding of src. Compressing an empty
// input yields a valid minimal container.
func Compress(src []byte) []byte {
	toks := tokenize(src)

	litLenFreq := make([]int64, numLitLen)
	distFreq := make([]int64, numDistSyms)
	litLenFreq[symEOB] = 1
	for _, t := range toks {
		if t.length == 0 {
			litLenFreq[t.lit]++
		} else {
			litLenFreq[257+lengthCode(t.length)]++
			distFreq[distCode(t.dist)]++
		}
	}
	llCode, err := huffman.Build(litLenFreq, 15)
	if err != nil {
		panic("flatezip: internal: " + err.Error()) // EOB guarantees a symbol
	}
	var dCode *huffman.Code
	hasDist := false
	for _, f := range distFreq {
		if f > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		dCode, err = huffman.Build(distFreq, 15)
		if err != nil {
			panic("flatezip: internal: " + err.Error())
		}
	} else {
		// Dummy single-entry table so the header stays uniform.
		dCode, _ = huffman.Build([]int64{1}, 15)
	}

	var bw bitio.Writer
	bw.WriteBytes(magic[:])
	var szb [binary.MaxVarintLen64]byte
	bw.WriteBytes(szb[:binary.PutUvarint(szb[:], uint64(len(src)))])
	llCode.WriteLengths(&bw)
	dCode.WriteLengths(&bw)
	// Every token's symbols were counted above, so each has a code.
	encode := func(c *huffman.Code, s int) {
		if err := c.Encode(&bw, s); err != nil {
			panic("flatezip: internal: " + err.Error())
		}
	}
	for _, t := range toks {
		if t.length == 0 {
			encode(llCode, int(t.lit))
			continue
		}
		lc := lengthCode(t.length)
		encode(llCode, 257+lc)
		bw.WriteBits(uint64(t.length-lengthBase[lc]), lengthExtra[lc])
		dc := distCode(t.dist)
		encode(dCode, dc)
		bw.WriteBits(uint64(t.dist-distBase[dc]), distExtra[dc])
	}
	encode(llCode, symEOB)
	return bw.Bytes()
}

// DecompressLimit reverses Compress, with a decompression-bomb guard:
// the stream's declared raw size is validated against max *before* the
// output buffer is allocated, returning ErrTooLarge when it exceeds it.
// A max of 0 applies only the built-in 2 GiB sanity cap. The buffer is
// sized by the declared size only up to what the input can produce
// (maxExpand bytes per input byte), so a tiny stream that declares a
// huge size costs little before it fails.
func DecompressLimit(data []byte, max uint64) ([]byte, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rawSize, nsz := binary.Uvarint(data[len(magic):])
	if nsz <= 0 {
		return nil, fmt.Errorf("%w: size header", ErrCorrupt)
	}
	if rawSize > 1<<31 {
		return nil, fmt.Errorf("%w: implausible size %d", ErrCorrupt, rawSize)
	}
	if max > 0 && rawSize > max {
		return nil, fmt.Errorf("%w: declared %d > cap %d", ErrTooLarge, rawSize, max)
	}
	br := bitio.NewReaderBytes(data[len(magic)+nsz:])
	var arena huffman.Arena
	llCode, err := huffman.ReadLengths(br, &arena, numLitLen)
	if err != nil {
		return nil, fmt.Errorf("%w: literal/length table: %v", ErrCorrupt, err)
	}
	dCode, err := huffman.ReadLengths(br, &arena, numDistSyms)
	if err != nil {
		return nil, fmt.Errorf("%w: distance table: %v", ErrCorrupt, err)
	}
	return inflate(br, llCode, dCode, rawSize)
}

// maxExpand bounds the output per input byte: the longest match, 258
// bytes, costs at least 2 bits (a literal/length code and a distance
// code of one bit each), so a byte of tokens yields at most 4*258.
const maxExpand = 4 * maxMatch

// tokenBits is the most bits a match token takes with DEFLATE's 15-bit
// code limit, which Compress keeps: a literal/length code, 5 extra
// bits, a distance code and 13 extra bits.
const tokenBits = 15 + 5 + 15 + 13

// inflate decodes the token stream up to its end-of-block symbol, which
// must close exactly rawSize bytes of output. It keeps br's bit buffer
// in locals, topped up once per token: both codes resolve through their
// tables, while a code the tables cannot resolve, or one or extra bits
// that outrun the bits held, takes DecodeSlow or br.ReadBits, so each
// error and the bits consumed are those of a bit-at-a-time decode. A
// match that does not overlap itself is copied with one append. The
// output is sized for rawSize only up to what the input can produce.
func inflate(br *bitio.Reader, llCode, dCode *huffman.Code, rawSize uint64) ([]byte, error) {
	ll, dt := llCode.Table(), dCode.Table()
	acc, n, data, pos := br.Lend()
	out := make([]byte, 0, min(rawSize, maxExpand*uint64(len(data))))
	var err error
	for {
		if n < tokenBits {
			acc, n, pos = bitio.Refill(acc, n, data, pos)
		}
		s, l := ll.Lookup(acc)
		if l != 0 && l <= n {
			acc, n = acc<<l, n-l
		} else if s, acc, n, pos, err = slowSymbol(br, llCode, acc, n, pos); err != nil {
			return nil, fmt.Errorf("%w: token stream: %v", ErrCorrupt, err)
		}
		switch {
		case s < 256:
			out = append(out, byte(s))
		case s == symEOB:
			if uint64(len(out)) != rawSize {
				return nil, fmt.Errorf("%w: size mismatch %d != %d", ErrCorrupt, len(out), rawSize)
			}
			return out, nil
		default:
			lc := s - 257
			if lc >= len(lengthBase) {
				return nil, fmt.Errorf("%w: length code %d", ErrCorrupt, s)
			}
			var extra uint64
			if x := lengthExtra[lc]; x <= n {
				extra, acc, n = acc>>(64-x), acc<<x, n-x
			} else if extra, acc, n, pos, err = slowBits(br, x, acc, n, pos); err != nil {
				return nil, fmt.Errorf("%w: length extra: %v", ErrCorrupt, err)
			}
			length := lengthBase[lc] + int(extra)
			dc, l := dt.Lookup(acc)
			if l != 0 && l <= n {
				acc, n = acc<<l, n-l
			} else if dc, acc, n, pos, err = slowSymbol(br, dCode, acc, n, pos); err != nil {
				return nil, fmt.Errorf("%w: distance: %v", ErrCorrupt, err)
			}
			if dc >= len(distBase) {
				return nil, fmt.Errorf("%w: distance code %d", ErrCorrupt, dc)
			}
			if x := distExtra[dc]; x <= n {
				extra, acc, n = acc>>(64-x), acc<<x, n-x
			} else if extra, acc, n, pos, err = slowBits(br, x, acc, n, pos); err != nil {
				return nil, fmt.Errorf("%w: distance extra: %v", ErrCorrupt, err)
			}
			dist := distBase[dc] + int(extra)
			if dist > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output %d", ErrCorrupt, dist, len(out))
			}
			from := len(out) - dist
			if dist >= length {
				out = append(out, out[from:from+length]...)
			} else {
				for k := 0; k < length; k++ {
					out = append(out, out[from+k])
				}
			}
		}
		if uint64(len(out)) > rawSize {
			return nil, fmt.Errorf("%w: overlong output", ErrCorrupt)
		}
	}
}

// slowSymbol decodes one symbol of c with DecodeSlow, taking the lent
// bit buffer back into br first and lending it again after.
func slowSymbol(br *bitio.Reader, c *huffman.Code, acc uint64, n uint, pos int) (int, uint64, uint, int, error) {
	br.Restore(acc, n, pos)
	s, err := c.DecodeSlow(br)
	acc, n, _, pos = br.Lend()
	return s, acc, n, pos, err
}

// slowBits reads x bits with br.ReadBits, which refills, the same way.
func slowBits(br *bitio.Reader, x uint, acc uint64, n uint, pos int) (uint64, uint64, uint, int, error) {
	br.Restore(acc, n, pos)
	v, err := br.ReadBits(x)
	acc, n, _, pos = br.Lend()
	return v, acc, n, pos, err
}
