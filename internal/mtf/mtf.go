// Package mtf implements move-to-front coding over arbitrary integer
// symbol alphabets, as used in step 3 of the paper's wire format
// ("Apply move-to-front coding to each stream in isolation").
//
// Following the paper's convention, index 0 is reserved to mean "a
// symbol not seen previously"; the first occurrence of a symbol is
// coded as 0 and its identity is carried in a side list of
// first-occurrence values, exactly reproducing the paper's example
// where the ADDRLP8 literal stream [72 72 68 72 68 68 68 68] codes to
// [0 1 0 2 2 1 1 1] with table {72, 68}.
//
// The Encoder keeps small tables in a linear-scan array (one cache line
// of int32s beats any tree). Once a table crosses treeThreshold
// distinct symbols, it switches to a sliding slot array with a Fenwick
// occupancy tree: a move-to-front clears the symbol's slot and claims
// the next slot below a decreasing front pointer, so rank (encode) and
// select (decode) are O(log n) instead of O(n) scans plus memmoves,
// with an amortized O(n log n) compaction when the front pointer hits
// zero. Both representations produce bit-identical output. The decode
// side has only the sliding form, StreamDecoder. The wire decoder runs
// its own array inside its decode loop, to a size limit of its own, and
// continues a stream in tree mode through Resume; wire's other stream
// readers (the NoHuffman ablation, Inspect), which are on no hot path,
// start in tree mode with Resume(nil, firsts).
package mtf

import "slices"

// treeThreshold is the table size at which the Encoder migrates from
// the linear-scan array to the Fenwick-backed sliding structure. The
// value only affects speed, never output (the representations are
// differentially tested for identical indices): MTF streams are
// recency-skewed, so the array's short memmoves beat three O(log n)
// Fenwick walks until typical ranks reach the high hundreds, and the
// tree is kept as the safety net for adversarially deep tables. It is
// a variable so the differential tests can force either representation.
var treeThreshold = 1024

// slackSlots is the extra free-slot headroom allocated beyond 2n on
// migration/compaction; it keeps tiny tables from compacting often.
const slackSlots = 64

// fenwick is a binary indexed tree over slot occupancy counts.
type fenwick struct {
	t  []int32 // 1-based; t[0] unused
	hi int     // largest power of two <= len(t)-1
}

func newFenwick(m int) *fenwick {
	f := &fenwick{t: make([]int32, m+1)}
	for f.hi = 1; f.hi*2 <= m; f.hi *= 2 {
	}
	return f
}

func (f *fenwick) add(slot int, d int32) {
	for i := slot + 1; i < len(f.t); i += i & -i {
		f.t[i] += d
	}
}

// prefix counts occupied slots in [0, slot).
func (f *fenwick) prefix(slot int) int32 {
	var s int32
	for i := slot; i > 0; i &= i - 1 {
		s += f.t[i]
	}
	return s
}

// selectK returns the 0-based slot of the (k+1)-th occupied position.
// The caller guarantees k is below the total occupancy.
func (f *fenwick) selectK(k int32) int {
	pos, rem := 0, k+1
	for step := f.hi; step > 0; step >>= 1 {
		if next := pos + step; next < len(f.t) && f.t[next] < rem {
			pos = next
			rem -= f.t[next]
		}
	}
	return pos
}

// sliding is the large-alphabet representation the Encoder and the
// StreamDecoder share: symbols live in
// slots[front:], most recent at the lowest index; moving to front
// clears the old slot and claims slot front-1.
type sliding struct {
	slots []int32
	live  []bool
	occ   *fenwick
	front int
	n     int
}

// reset re-layouts the given recency order (most recent first) into a
// fresh slot array with n+slackSlots free slots below the front.
func (t *sliding) reset(order []int32) {
	m := 2*len(order) + slackSlots
	t.slots = make([]int32, m)
	t.live = make([]bool, m)
	t.occ = newFenwick(m)
	t.front = m - len(order)
	t.n = len(order)
	for i, s := range order {
		p := t.front + i
		t.slots[p] = s
		t.live[p] = true
		t.occ.add(p, 1)
	}
}

// compact rebuilds the slot array in current recency order.
func (t *sliding) compact() {
	order := make([]int32, 0, t.n)
	for p := t.front; p < len(t.slots); p++ {
		if t.live[p] {
			order = append(order, t.slots[p])
		}
	}
	t.reset(order)
}

// insertFront places sym at a new front slot, compacting first if the
// slot array is exhausted. Returns the slot used.
func (t *sliding) insertFront(sym int32) int {
	if t.front == 0 {
		t.compact()
	}
	t.front--
	p := t.front
	t.slots[p] = sym
	t.live[p] = true
	t.occ.add(p, 1)
	t.n++
	return p
}

func (t *sliding) remove(p int) {
	t.live[p] = false
	t.occ.add(p, -1)
	t.n--
}

// Encoder maintains the dynamic recency table for one stream.
type Encoder struct {
	table []int32 // small-table mode; unused once tree is non-nil
	tree  *sliding
	pos   map[int32]int // symbol -> slot (tree mode only)
}

// Reset clears the recency table while keeping the array capacity, so
// one Encoder can be reused across streams (the wire encoder pools
// them). A large-alphabet tree from a previous stream is released.
func (e *Encoder) Reset() {
	e.table = e.table[:0]
	e.tree = nil
	e.pos = nil
}

// treeInsert claims a front slot for sym, compacting first — and
// rebuilding the position map the compaction invalidates — when the
// slot array is exhausted.
func (e *Encoder) treeInsert(sym int32) {
	if e.tree.front == 0 {
		e.tree.compact()
		for p := e.tree.front; p < len(e.tree.slots); p++ {
			e.pos[e.tree.slots[p]] = p
		}
	}
	e.pos[sym] = e.tree.insertFront(sym)
}

// migrate switches from the array to the sliding representation.
func (e *Encoder) migrate() {
	e.tree = &sliding{}
	e.tree.reset(e.table)
	e.pos = make(map[int32]int, 2*len(e.table))
	for i, s := range e.table {
		e.pos[s] = e.tree.front + i
	}
	e.table = e.table[:0]
}

// Encode codes one symbol: 0 if never seen, else 1-based recency rank.
// The symbol is moved to (or inserted at) the front of the table.
func (e *Encoder) Encode(sym int32) int {
	if e.tree == nil {
		for i, s := range e.table {
			if s == sym {
				copy(e.table[1:i+1], e.table[:i])
				e.table[0] = sym
				return i + 1
			}
		}
		if len(e.table) < treeThreshold {
			e.table = append(e.table, 0)
			copy(e.table[1:], e.table[:len(e.table)-1])
			e.table[0] = sym
			return 0
		}
		e.migrate()
	} else if p, seen := e.pos[sym]; seen {
		if p == e.tree.front {
			return 1
		}
		rank := e.tree.occ.prefix(p)
		e.tree.remove(p)
		e.treeInsert(sym)
		return int(rank) + 1
	}
	e.treeInsert(sym)
	return 0
}

// AppendEncode codes syms through e (call Reset first for a fresh
// stream), appending the MTF indices and the first-occurrence values
// (the paper's "table", in first-seen order) to the provided slices and
// returning them. Passing slices truncated to length zero reuses their
// backing arrays, so a hot encode loop allocates nothing per stream.
func AppendEncode(e *Encoder, syms []int32, indices []int, firsts []int32) ([]int, []int32) {
	for _, s := range syms {
		idx := e.Encode(s)
		indices = append(indices, idx)
		if idx == 0 {
			firsts = append(firsts, s)
		}
	}
	return indices, firsts
}

// StreamDecoder reverses an Encoder's stream an index at a time, in the
// sliding form: index 0 takes the next value from the stream's
// first-occurrence list. It needs no symbol index: decode addresses
// the table by rank (Fenwick select).
type StreamDecoder struct {
	t      sliding
	firsts []int32 // first-occurrence values not yet used
}

// Resume returns a stream decoder that continues a stream whose start a
// caller's own loop decoded in array mode (wire's fused decode loop,
// once its table is full): table holds the stream's distinct symbols so
// far, most recent last, so that a new symbol is an append, and firsts
// the first-occurrence values not yet used. Resume takes table over.
// With a nil table it returns a decoder from the stream's first symbol.
func Resume(table, firsts []int32) *StreamDecoder {
	slices.Reverse(table)
	s := &StreamDecoder{firsts: firsts}
	s.t.reset(table)
	return s
}

// Next decodes the stream's next index. ok is false on a malformed
// stream: index out of range, or no first-occurrence value left.
func (s *StreamDecoder) Next(index int) (sym int32, ok bool) {
	t := &s.t
	if index == 0 {
		if len(s.firsts) == 0 {
			return 0, false
		}
		sym, s.firsts = s.firsts[0], s.firsts[1:]
		t.insertFront(sym)
		return sym, true
	}
	k := index - 1
	if k < 0 || k >= t.n {
		return 0, false
	}
	// Rank 0 is the front slot (always live: nothing removes the front
	// without replacing it), and it dominates MTF-friendly streams, so
	// skip the Fenwick walk for it.
	if k == 0 {
		return t.slots[t.front], true
	}
	p := t.occ.selectK(int32(k))
	sym = t.slots[p]
	t.remove(p)
	t.insertFront(sym)
	return sym, true
}
