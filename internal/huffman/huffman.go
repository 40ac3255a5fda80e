// Package huffman implements canonical Huffman coding over arbitrary
// integer symbol alphabets.
//
// The paper's wire format (step 4: "Huffman-code all MTF indices") and
// the flatezip substrate both use this package. Codes are canonical:
// only the code-length table needs to be transmitted; both ends derive
// identical codes by assigning values in (length, symbol) order. Lengths
// can be limited (the flatezip container limits them to 15 bits, like
// DEFLATE) using a heuristic that demotes over-long codes.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitio"
)

// MaxBits is the largest code length this package will ever produce.
const MaxBits = 32

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
	codes   []uint32 // left-justified-at-length canonical code values
	decode  *decodeTable

	// Two-level decode table, built lazily on first Decode so
	// encode-only codes never pay for it. Guarded by a Once because
	// indexed containers share one Code across decoder goroutines.
	fastOnce sync.Once
	fast     *fastTable
}

type decodeTable struct {
	// counts[l] = number of codes of length l; offsets[l] = first
	// canonical code value of length l; symbols sorted by (length, symbol).
	firstCode   [MaxBits + 1]uint32
	firstSymIdx [MaxBits + 1]int
	count       [MaxBits + 1]int
	symbols     []int
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
		return FromLengths(lengths)
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
	return FromLengths(lengths)
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
			break // cannot repair; FromLengths will reject
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
// table (the decoder-side constructor). The table must satisfy the
// Kraft inequality.
func FromLengths(lengths []uint8) (*Code, error) {
	c := &Code{Lengths: append([]uint8(nil), lengths...)}
	var dt decodeTable
	var kraft int64
	limit := int64(1) << MaxBits
	for s, l := range lengths {
		if l > MaxBits {
			return nil, ErrBadLengths
		}
		if l > 0 {
			dt.count[l]++
			kraft += int64(1) << (MaxBits - l)
			if kraft > limit {
				return nil, ErrBadLengths
			}
			if l > dt.maxLen {
				dt.maxLen = l
			}
			_ = s
		}
	}
	if dt.maxLen == 0 {
		return nil, ErrNoSymbols
	}
	// Canonical first-code per length.
	var code uint32
	idx := 0
	for l := uint8(1); l <= dt.maxLen; l++ {
		code <<= 1
		dt.firstCode[l] = code
		dt.firstSymIdx[l] = idx
		code += uint32(dt.count[l])
		idx += dt.count[l]
	}
	// Symbols in (length, symbol) order.
	dt.symbols = make([]int, 0, idx)
	c.codes = make([]uint32, len(lengths))
	next := dt.firstCode
	for l := uint8(1); l <= dt.maxLen; l++ {
		for s, sl := range lengths {
			if sl == l {
				dt.symbols = append(dt.symbols, s)
				c.codes[s] = next[l]
				next[l]++
			}
		}
	}
	c.decode = &dt
	return c, nil
}

// Encode writes the code for symbol s to bw.
func (c *Code) Encode(bw *bitio.Writer, s int) error {
	if s < 0 || s >= len(c.Lengths) || c.Lengths[s] == 0 {
		return fmt.Errorf("%w: %d", ErrUnknownSymbol, s)
	}
	return bw.WriteBits(uint64(c.codes[s]), uint(c.Lengths[s]))
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
)

// dEntry is one decode-table slot. bits==0 means "no (table-resolvable)
// code here"; sub marks an indirection, with sym the subtable index and
// bits its width.
type dEntry struct {
	sym  int32
	bits uint8
	sub  bool
}

type fastTable struct {
	rootBits uint
	root     []dEntry
	subs     [][]dEntry
}

func (c *Code) fastTab() *fastTable {
	c.fastOnce.Do(func() { c.fast = c.buildFast() })
	return c.fast
}

func (c *Code) buildFast() *fastTable {
	dt := c.decode
	f := &fastTable{rootBits: uint(dt.maxLen)}
	if f.rootBits > rootBitsMax {
		f.rootBits = rootBitsMax
	}
	f.root = make([]dEntry, 1<<f.rootBits)
	for s, l := range c.Lengths {
		if l == 0 || uint(l) > f.rootBits {
			continue
		}
		start := int(c.codes[s]) << (f.rootBits - uint(l))
		n := 1 << (f.rootBits - uint(l))
		for i := 0; i < n; i++ {
			f.root[start+i] = dEntry{sym: int32(s), bits: l}
		}
	}
	if uint(dt.maxLen) <= f.rootBits {
		return f
	}
	// Long codes: size each prefix's subtable by the deepest code that
	// shares it, capped at subBitsMax.
	width := map[uint32]uint{}
	for s, l := range c.Lengths {
		if uint(l) <= f.rootBits {
			continue
		}
		p := c.codes[s] >> (uint(l) - f.rootBits)
		w := uint(l) - f.rootBits
		if w > subBitsMax {
			w = subBitsMax
		}
		if w > width[p] {
			width[p] = w
		}
	}
	prefixes := make([]uint32, 0, len(width))
	for p := range width {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	subIdx := map[uint32]int32{}
	total := 0
	for _, p := range prefixes {
		w := width[p]
		if total+(1<<w) > subEntryBudget {
			continue
		}
		subIdx[p] = int32(len(f.subs))
		f.root[p] = dEntry{sym: int32(len(f.subs)), bits: uint8(w), sub: true}
		f.subs = append(f.subs, make([]dEntry, 1<<w))
		total += 1 << w
	}
	for s, l := range c.Lengths {
		if uint(l) <= f.rootBits {
			continue
		}
		p := c.codes[s] >> (uint(l) - f.rootBits)
		si, ok := subIdx[p]
		if !ok {
			continue
		}
		w := width[p]
		if uint(l) > f.rootBits+w {
			continue // deeper than the capped subtable: slow path
		}
		low := c.codes[s] & (1<<(uint(l)-f.rootBits) - 1)
		start := int(low) << (f.rootBits + w - uint(l))
		n := 1 << (f.rootBits + w - uint(l))
		sub := f.subs[si]
		for i := 0; i < n; i++ {
			sub[start+i] = dEntry{sym: int32(s), bits: l}
		}
	}
	return f
}

// Decode reads one symbol from br: one Peek resolves most codes through
// the root table, long codes take one more through a subtable, and
// anything the tables cannot resolve (stream tail shorter than the
// peek, under-full code regions, ultra-deep codes past the table
// budget) falls back to DecodeSlow, which also reproduces the exact
// error and bit-consumption behavior of the original walker.
func (c *Code) Decode(br *bitio.Reader) (int, error) {
	f := c.fastTab()
	v, avail := br.Peek(f.rootBits)
	e := f.root[v]
	if e.sub {
		w := uint(e.bits)
		v2, avail2 := br.Peek(f.rootBits + w)
		se := f.subs[e.sym][v2&(1<<w-1)]
		if se.bits != 0 && uint(se.bits) <= avail2 {
			br.Skip(uint(se.bits))
			return int(se.sym), nil
		}
		return c.DecodeSlow(br)
	}
	if e.bits != 0 && uint(e.bits) <= avail {
		br.Skip(uint(e.bits))
		return int(e.sym), nil
	}
	return c.DecodeSlow(br)
}

// DecodeSlow reads one symbol by walking the canonical code one bit at
// a time. It is the reference oracle for Decode (the differential fuzz
// tests compare the two) and the fallback for inputs the tables do not
// cover.
func (c *Code) DecodeSlow(br *bitio.Reader) (int, error) {
	dt := c.decode
	var code uint32
	for l := uint8(1); l <= dt.maxLen; l++ {
		b, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if dt.count[l] > 0 && code-dt.firstCode[l] < uint32(dt.count[l]) {
			return dt.symbols[dt.firstSymIdx[l]+int(code-dt.firstCode[l])], nil
		}
	}
	return 0, ErrBadLengths
}

// CodeLen reports the bit length assigned to symbol s (0 if absent).
func (c *Code) CodeLen(s int) uint8 {
	if s < 0 || s >= len(c.Lengths) {
		return 0
	}
	return c.Lengths[s]
}

// EncodedSize returns the total bit cost of coding the given frequency
// profile with this code, ignoring absent symbols with zero frequency.
func (c *Code) EncodedSize(freqs []int64) int64 {
	var bits int64
	for s, f := range freqs {
		if f > 0 && s < len(c.Lengths) {
			bits += f * int64(c.Lengths[s])
		}
	}
	return bits
}

// WriteLengths serializes the code-length table so a decoder can rebuild
// the code with FromLengths. Format: uvarint symbol count, then a simple
// run-length scheme over lengths: (length byte, uvarint run).
func (c *Code) WriteLengths(bw *bitio.Writer) error {
	if err := writeUvarint(bw, uint64(len(c.Lengths))); err != nil {
		return err
	}
	i := 0
	for i < len(c.Lengths) {
		j := i
		for j < len(c.Lengths) && c.Lengths[j] == c.Lengths[i] {
			j++
		}
		if err := bw.WriteBits(uint64(c.Lengths[i]), 6); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(j-i)); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// ReadLengths deserializes a table written by WriteLengths and returns
// the reconstructed code.
func ReadLengths(br *bitio.Reader) (*Code, error) {
	n, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
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
	return FromLengths(lengths)
}

func writeUvarint(bw *bitio.Writer, v uint64) error {
	for v >= 0x80 {
		if err := bw.WriteByte(byte(v) | 0x80); err != nil {
			return err
		}
		v >>= 7
	}
	return bw.WriteByte(byte(v))
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
