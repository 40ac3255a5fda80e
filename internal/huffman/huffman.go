// Package huffman implements canonical Huffman coding over arbitrary
// integer symbol alphabets.
//
// The paper's wire format (step 4: "Huffman-code all MTF indices") and
// the flatezip substrate both use this package. Codes are canonical:
// only the code-length table needs to be transmitted; both ends derive
// identical codes by assigning values in (length, symbol) order. Lengths
// can be limited (the flatezip container limits them to 15 bits, like
// DEFLATE) using a heuristic that demotes over-long codes.
//
// A decoder-side code (FromLengths, ReadLengths) carries a two-level
// decode table built with it; an encoder-side code (Build) does not.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitio"
)

// MaxBits is the largest code length this package will ever produce.
const MaxBits = 32

// MaxSymbols bounds the alphabet of a decoder-side code, so a decode
// table entry holds any symbol in 24 bits.
const MaxSymbols = 1 << 24

var (
	// ErrNoSymbols is returned when a code is built from an all-zero
	// frequency table.
	ErrNoSymbols = errors.New("huffman: no symbols with nonzero frequency")
	// ErrBadLengths is returned when a received code-length table is not
	// a valid (complete or under-full) prefix code.
	ErrBadLengths = errors.New("huffman: invalid code length table")
	// ErrUnknownSymbol is returned by Encode for a symbol absent from
	// the code.
	ErrUnknownSymbol = errors.New("huffman: symbol has no code")
)

// Code is a canonical Huffman code for symbols 0..n-1. Symbols with
// Lengths[s] == 0 do not participate in the code.
type Code struct {
	Lengths []uint8  // bits per symbol; 0 = absent
	codes   []uint32 // canonical code value of each symbol, right-justified
	canon   canonical
	tab     Table // zero for an encoder-side code
}

// canonical is the code as DecodeSlow walks it: per length, the first
// canonical code value, the number of codes, and the index in symbols
// of the first one; symbols sorted by (length, symbol).
type canonical struct {
	firstCode   [MaxBits + 1]uint32
	firstSymIdx [MaxBits + 1]int32
	count       [MaxBits + 1]int32
	symbols     []uint32
	maxLen      uint8
}

type buildNode struct {
	freq        int64
	sym         int // >=0 leaf, -1 internal
	left, right *buildNode
}

type buildHeap []*buildNode

func (h buildHeap) Len() int { return len(h) }
func (h buildHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	// Deterministic tie-break so codes are reproducible across runs.
	return h[i].sym < h[j].sym
}
func (h buildHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *buildHeap) Push(x interface{}) { *h = append(*h, x.(*buildNode)) }
func (h *buildHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Build constructs a canonical code from symbol frequencies. freqs[s]
// is the occurrence count of symbol s; zero-frequency symbols get no
// code. maxLen caps code lengths (0 means MaxBits). A single-symbol
// alphabet yields a 1-bit code, so every symbol always costs >=1 bit.
// The code is encoder-side: it has no decode table, so Decode walks it
// bit by bit. A decoder rebuilds it with FromLengths or ReadLengths.
func Build(freqs []int64, maxLen uint8) (*Code, error) {
	if maxLen == 0 || maxLen > MaxBits {
		maxLen = MaxBits
	}
	nsym := 0
	for s, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", s)
		}
		if f > 0 {
			nsym++
		}
	}
	if nsym == 0 {
		return nil, ErrNoSymbols
	}
	// All tree nodes live in one arena: nsym leaves plus at most nsym-1
	// internal nodes. The capacity is exact, so the backing array never
	// reallocates and pointers into it stay valid while the heap runs.
	nodes := make([]buildNode, 0, 2*nsym-1)
	h := make(buildHeap, 0, nsym)
	for s, f := range freqs {
		if f > 0 {
			nodes = append(nodes, buildNode{freq: f, sym: s})
			h = append(h, &nodes[len(nodes)-1])
		}
	}
	lengths := make([]uint8, len(freqs))
	if len(h) == 1 {
		lengths[h[0].sym] = 1
		return newCode(lengths, nil)
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*buildNode)
		b := heap.Pop(&h).(*buildNode)
		nodes = append(nodes, buildNode{freq: a.freq + b.freq, sym: -1, left: a, right: b})
		heap.Push(&h, &nodes[len(nodes)-1])
	}
	root := h[0]
	assignDepths(root, 0, lengths)
	limitLengths(lengths, maxLen)
	return newCode(lengths, nil)
}

func assignDepths(n *buildNode, depth uint8, lengths []uint8) {
	if n.sym >= 0 {
		if depth == 0 {
			depth = 1
		}
		lengths[n.sym] = depth
		return
	}
	assignDepths(n.left, depth+1, lengths)
	assignDepths(n.right, depth+1, lengths)
}

// limitLengths enforces maxLen using the standard Kraft-sum repair:
// clamp over-long codes, then while the Kraft sum exceeds 1, lengthen
// the deepest still-shortenable codes; finally tighten any slack.
func limitLengths(lengths []uint8, maxLen uint8) {
	over := false
	for _, l := range lengths {
		if l > maxLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	type ls struct {
		sym int
		len uint8
	}
	var active []ls
	for s, l := range lengths {
		if l > 0 {
			if l > maxLen {
				l = maxLen
			}
			active = append(active, ls{s, l})
		}
	}
	// Kraft sum in units of 2^-maxLen.
	kraft := func() int64 {
		var k int64
		for _, a := range active {
			k += int64(1) << (maxLen - a.len)
		}
		return k
	}
	limit := int64(1) << maxLen
	// Sort shallowest first; demote the deepest demotable entries.
	sort.Slice(active, func(i, j int) bool { return active[i].len < active[j].len })
	for kraft() > limit {
		// Find the deepest entry with len < maxLen... actually we must
		// *increase* lengths of codes to reduce the Kraft sum.
		demoted := false
		for i := len(active) - 1; i >= 0; i-- {
			if active[i].len < maxLen {
				active[i].len++
				demoted = true
				break
			}
		}
		if !demoted {
			break // cannot repair; newCode will reject
		}
	}
	// Tighten: if the sum is under-full, promote deep codes where possible.
	for {
		k := kraft()
		if k >= limit {
			break
		}
		promoted := false
		for i := len(active) - 1; i >= 0; i-- {
			if active[i].len > 1 && k+(int64(1)<<(maxLen-active[i].len)) <= limit {
				active[i].len--
				promoted = true
				break
			}
		}
		if !promoted {
			break
		}
	}
	for _, a := range active {
		lengths[a.sym] = a.len
	}
}

// FromLengths constructs the canonical code implied by a code-length
// table (the decoder-side constructor), with its decode table. The
// table must satisfy the Kraft inequality and hold at most 1<<24
// symbols.
func FromLengths(lengths []uint8) (*Code, error) {
	return decoderCode(append([]uint8(nil), lengths...), nil)
}

// decoderCode is newCode plus the two-level decode table, its storage
// carved from a.
func decoderCode(lengths []uint8, a *Arena) (*Code, error) {
	if len(lengths) > MaxSymbols {
		return nil, ErrBadLengths
	}
	c, err := newCode(lengths, a)
	if err != nil {
		return nil, err
	}
	c.buildTable(a)
	return c, nil
}

// newCode assigns the canonical code for lengths, which the code keeps:
// one counting pass over the table finds each length's first code and
// symbol index, and a second places every symbol, so symbols of one
// length take consecutive codes in symbol order. The code values and
// symbol order are carved from a.
func newCode(lengths []uint8, a *Arena) (*Code, error) {
	c := &Code{Lengths: lengths}
	cn := &c.canon
	var kraft int64
	limit := int64(1) << MaxBits
	for _, l := range lengths {
		if l > MaxBits {
			return nil, ErrBadLengths
		}
		if l > 0 {
			cn.count[l]++
			kraft += int64(1) << (MaxBits - l)
			if kraft > limit {
				return nil, ErrBadLengths
			}
			cn.maxLen = max(cn.maxLen, l)
		}
	}
	if cn.maxLen == 0 {
		return nil, ErrNoSymbols
	}
	var code uint32
	var idx int32
	for l := uint8(1); l <= cn.maxLen; l++ {
		code <<= 1
		cn.firstCode[l] = code
		cn.firstSymIdx[l] = idx
		code += uint32(cn.count[l])
		idx += cn.count[l]
	}
	words := a.alloc(len(lengths) + int(idx))
	c.codes, cn.symbols = words[:len(lengths):len(lengths)], words[len(lengths):]
	next := cn.firstSymIdx
	for s, l := range lengths {
		if l > 0 {
			i := next[l]
			next[l]++
			cn.symbols[i] = uint32(s)
			c.codes[s] = cn.firstCode[l] + uint32(i-cn.firstSymIdx[l])
		}
	}
	return c, nil
}

// Encode writes the code for symbol s to bw.
func (c *Code) Encode(bw *bitio.Writer, s int) error {
	if s < 0 || s >= len(c.Lengths) || c.Lengths[s] == 0 {
		return fmt.Errorf("%w: %d", ErrUnknownSymbol, s)
	}
	bw.WriteBits(uint64(c.codes[s]), uint(c.Lengths[s]))
	return nil
}

// Two-level decode table sizing. The root table resolves codes up to
// rootBitsMax bits in one peek; longer codes indirect through one
// per-prefix subtable of up to subBitsMax extra bits. Codes deeper than
// rootBitsMax+subBitsMax — and any prefixes past the total entry budget,
// which bounds what a hostile length table can make us allocate — fall
// back to the bit-walking decoder.
const (
	rootBitsMax    = 10
	subBitsMax     = 12
	subEntryBudget = 1 << 16
	// PeekBits is the most bits a Table lookup looks at.
	PeekBits = rootBitsMax + subBitsMax
)

// A table entry packs a symbol (or a subtable's offset in entries) in
// its top 24 bits, the sub flag, and the code length (or the
// subtable's width in bits) in its low 6 bits. A zero entry resolves
// nothing.
const (
	entrySub = 1 << 7
	entryLen = 1<<6 - 1
)

// Table is a code's two-level decode table, for decode loops that keep
// their bit buffer in locals: Lookup resolves the code at the top of
// the buffer with one or two indexed loads.
type Table struct {
	rootBits uint
	entries  []uint32 // the root table, then the subtables
}

// Table returns c's decode table. Only a decoder-side code has one: the
// Table of a code made by Build must not be used.
func (c *Code) Table() Table { return c.tab }

// Lookup resolves the code whose bits lead acc, left-justified and
// zero-padded. It returns the symbol and the code's length, or length 0
// when the tables cannot resolve the code (an under-full region, or a
// code too deep for them); a caller must also check the length against
// the bits it holds. DecodeSlow decodes whatever Lookup leaves, with
// the bit consumption and errors a bit-at-a-time walk gives.
func (t Table) Lookup(acc uint64) (sym int, n uint) {
	e := t.entries[acc>>(64-t.rootBits)]
	if e&entrySub != 0 {
		e = t.entries[int(e>>8)+int(acc<<t.rootBits>>(64-e&entryLen))]
	}
	return int(e >> 8), uint(e & entryLen)
}

// buildTable fills c's two-level table. A root prefix that leads longer
// codes gets a subtable sized by the deepest of them, capped at
// subBitsMax; prefixes whose subtables would pass subEntryBudget, in
// prefix order, keep a zero root entry.
func (c *Code) buildTable(a *Arena) {
	rb := uint(min(c.canon.maxLen, rootBitsMax))
	root := 1 << rb
	var width [1 << rootBitsMax]uint8
	if uint(c.canon.maxLen) > rb {
		for s, l := range c.Lengths {
			if uint(l) > rb {
				p := c.codes[s] >> (uint(l) - rb)
				width[p] = max(width[p], uint8(min(uint(l)-rb, subBitsMax)))
			}
		}
	}
	size := root
	for p, w := range width[:root] {
		if w > 0 && size-root+1<<w > subEntryBudget {
			width[p] = 0
		} else if w > 0 {
			size += 1 << w
		}
	}
	entries := a.alloc(size)
	off := root
	for p, w := range width[:root] {
		if w > 0 {
			entries[p] = uint32(off)<<8 | entrySub | uint32(w)
			off += 1 << w
		}
	}
	for s, l := range c.Lengths {
		if l == 0 {
			continue
		}
		code, l, e := c.codes[s], uint(l), uint32(s)<<8|uint32(l)
		if l <= rb {
			fill(entries[code<<(rb-l):], 1<<(rb-l), e)
			continue
		}
		r := entries[code>>(l-rb)]
		if w := uint(r & entryLen); r&entrySub != 0 && l <= rb+w {
			low := code & (1<<(l-rb) - 1)
			fill(entries[int(r>>8)+int(low<<(rb+w-l)):], 1<<(rb+w-l), e)
		}
	}
	c.tab = Table{rootBits: rb, entries: entries}
}

func fill(dst []uint32, n int, e uint32) {
	for i := range dst[:n] {
		dst[i] = e
	}
}

// Decode reads one symbol from br: one peek resolves it through the
// decode table, and anything the table cannot resolve (stream tail
// shorter than the code, under-full code regions, codes past the table
// budget) falls back to DecodeSlow, which also reproduces the exact
// error and bit-consumption behavior of the original walker. A code
// made by Build has no table and always takes DecodeSlow.
func (c *Code) Decode(br *bitio.Reader) (int, error) {
	if c.tab.entries != nil {
		v, avail := br.Peek(PeekBits)
		if sym, n := c.tab.Lookup(v << (64 - PeekBits)); n != 0 && n <= avail {
			br.Skip(n)
			return sym, nil
		}
	}
	return c.DecodeSlow(br)
}

// DecodeSlow reads one symbol by walking the canonical code one bit at
// a time. It is the reference oracle for Decode (the differential fuzz
// tests compare the two) and the fallback for inputs the tables do not
// cover.
func (c *Code) DecodeSlow(br *bitio.Reader) (int, error) {
	cn := &c.canon
	var code uint32
	for l := uint8(1); l <= cn.maxLen; l++ {
		b, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if cn.count[l] > 0 && code-cn.firstCode[l] < uint32(cn.count[l]) {
			return int(cn.symbols[cn.firstSymIdx[l]+int32(code-cn.firstCode[l])]), nil
		}
	}
	return 0, ErrBadLengths
}

// Arena hands out the decode storage of many codes — each code's
// values, symbol order and decode table — from shared slabs, so reading
// a container's codes costs a few allocations rather than several per
// code. It belongs to one decoder at a time (wire reads a container's
// segments in order on one goroutine), and the zero value is ready; a
// nil Arena allocates each code's storage on its own. A slab lives as
// long as any code carved from it.
type Arena struct {
	free []uint32
	slab int // words in the next slab
}

// Slab sizes, in words: the first slab is small, so a tiny container
// pays little, and each next one doubles up to arenaSlabMax. A request
// over a quarter of the largest slab gets its own allocation.
const (
	arenaSlabMin = 1 << 10
	arenaSlabMax = 1 << 15
)

// alloc returns n zeroed words.
func (a *Arena) alloc(n int) []uint32 {
	if a == nil || n > arenaSlabMax/4 {
		return make([]uint32, n)
	}
	if n > len(a.free) {
		a.slab = min(max(2*a.slab, arenaSlabMin), arenaSlabMax)
		a.free = make([]uint32, max(a.slab, n))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// CodeLen reports the bit length assigned to symbol s (0 if absent).
func (c *Code) CodeLen(s int) uint8 {
	if s < 0 || s >= len(c.Lengths) {
		return 0
	}
	return c.Lengths[s]
}

// WriteLengths serializes the code-length table so a decoder can rebuild
// the code with FromLengths. Format: uvarint symbol count, then a simple
// run-length scheme over lengths: (length byte, uvarint run).
func (c *Code) WriteLengths(bw *bitio.Writer) {
	writeUvarint(bw, uint64(len(c.Lengths)))
	i := 0
	for i < len(c.Lengths) {
		j := i
		for j < len(c.Lengths) && c.Lengths[j] == c.Lengths[i] {
			j++
		}
		bw.WriteBits(uint64(c.Lengths[i]), 6)
		writeUvarint(bw, uint64(j-i))
		i = j
	}
}

// ReadLengths deserializes a table written by WriteLengths and returns
// the reconstructed decoder-side code, its storage carved from a (which
// may be nil). A table declaring more than maxSyms symbols (or
// MaxSymbols) is rejected before its length array is allocated: one
// short run may legally cover millions of lengths, so only the caller's
// alphabet can bound that allocation.
func ReadLengths(br *bitio.Reader, a *Arena, maxSyms int) (*Code, error) {
	n, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > uint64(min(maxSyms, MaxSymbols)) {
		return nil, ErrBadLengths
	}
	lengths := make([]uint8, 0, n)
	for uint64(len(lengths)) < n {
		l, err := br.ReadBits(6)
		if err != nil {
			return nil, err
		}
		run, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if run == 0 || uint64(len(lengths))+run > n {
			return nil, ErrBadLengths
		}
		for k := uint64(0); k < run; k++ {
			lengths = append(lengths, uint8(l))
		}
	}
	return decoderCode(lengths, a)
}

func writeUvarint(bw *bitio.Writer, v uint64) {
	for v >= 0x80 {
		bw.WriteBits(uint64(byte(v)|0x80), 8)
		v >>= 7
	}
	bw.WriteBits(v, 8)
}

func readUvarint(br *bitio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrBadLengths
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
