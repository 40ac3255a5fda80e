package brisc

import (
	"fmt"

	"repro/internal/vm"
)

// unitTable is decoded code in directly dispatchable form: each unit
// becomes a span in a flat instruction array plus the metadata the
// dispatch loop needs — successor offset, successor unit index, pattern
// id, and whether it opens a block. Units keep speaking original code
// byte offsets (the interpreter's PC, return addresses, and block table
// all do), so one table type serves both the whole image and a single
// faulted-in XIP page.
type unitTable struct {
	units []predUnit
	code  []vm.Instr // expanded instructions, units back to back

	// idx maps a byte position in the decoded raw buffer — the code
	// stream for the whole image, the page's bytes for an XIP page — to
	// the index in units of the unit starting there, or -1 off the unit
	// grid. Execution can land off-grid only through computed jumps
	// (RJR/EPI to a corrupted return address) or fall-through past the
	// end of code, which trap with ErrCorrupt.
	idx []int32
}

// Table reservations per byte of the raw buffer a unitTable decodes.
// Measured whole images (wep, lcc, gcc and word, lcc at ten seeds, the
// five kernels) run 0.29–0.38 units and 0.32–0.76 instructions per
// code byte, so whole-image predecode fills its tables without
// regrowing them. Single 512-byte XIP pages reach 0.44 and 0.85, and a
// page past the bound grows its table once by append; that table is
// then recycled. Hostile input past it also just appends. The
// reservation is ~21 bytes per raw byte, next to idx's 4.
const (
	unitsPerByteNum, unitsPerByteDen   = 2, 5 // 0.40 units per byte
	instrsPerByteNum, instrsPerByteDen = 4, 5 // 0.80 instructions per byte
)

// reset empties t for decoding a raw buffer of n bytes, reserving the
// tables' expected sizes and keeping any larger capacity, so a recycled
// XIP page table decodes its next page without allocating.
func (t *unitTable) reset(n int) {
	if nu := n * unitsPerByteNum / unitsPerByteDen; cap(t.units) < nu {
		t.units = make([]predUnit, 0, nu)
	}
	if ni := n * instrsPerByteNum / instrsPerByteDen; cap(t.code) < ni {
		t.code = make([]vm.Instr, 0, ni)
	}
	t.units = t.units[:0]
	t.code = t.code[:0]
	if cap(t.idx) < n {
		t.idx = make([]int32, n)
	}
	t.idx = t.idx[:n]
	for i := range t.idx {
		t.idx[i] = -1
	}
}

type predUnit struct {
	off     int32 // byte offset of this unit in Obj.Code
	next    int32 // byte offset of the following unit (CALL return address)
	nextIdx int32 // units index at offset next; -1 when next is off-table
	first   int32 // index of the unit's first instruction in code
	n       int32 // instruction count
	pid     int32 // pattern id (the inspector's per-unit attribution)
	isBlock bool  // unit sits at a block boundary (decoded from context 0)
}

// predecoded is a BRISC image decoded once, up front: the whole image
// as one unit table plus the block-to-unit map that lets jump skip the
// offset lookup. The interpreter's copy is cached on the Object (it is
// immutable), so repeated Runs share one decode; the JIT builds its own
// and rewrites it in place.
type predecoded struct {
	unitTable

	// blockUnit maps block index -> unit index, resolving jump
	// without an offset lookup.
	blockUnit []int32
}

// segment is a block-aligned byte range of the code stream. Every block
// starts at Markov context 0, so each segment decodes on its own from
// the raw buffer it was packed into. The whole image is one buffer, the
// code itself (page 0, local == start); XIP repacks segments into pages.
type segment struct {
	start, end int32 // [start,end) in original Obj.Code coordinates
	isBlock    bool  // start is a block offset (false only for a preamble)
	page       int32 // raw buffer (XIP page) the segment was packed into
	local      int32 // offset of start within that buffer
}

// segments cuts the code stream at offset 0 and every distinct block
// offset. Block offsets must be ascending and inside the code; one that
// is off the unit grid surfaces when its segments are decoded.
func (o *Object) segments() ([]segment, error) {
	n := int32(len(o.Code))
	segs := make([]segment, 0, len(o.Blocks)+1)
	if n > 0 && (len(o.Blocks) == 0 || o.Blocks[0] != 0) {
		segs = append(segs, segment{start: 0}) // preamble before the first block
	}
	for i, b := range o.Blocks {
		if b < 0 || b >= n || (i > 0 && b < o.Blocks[i-1]) {
			return nil, fmt.Errorf("%w: block %d offset %d out of order or beyond code", ErrCorrupt, i, b)
		}
		if i == 0 || b != o.Blocks[i-1] {
			segs = append(segs, segment{start: b, isBlock: true, local: b})
		}
	}
	for i := range segs {
		segs[i].end = n
		if i+1 < len(segs) {
			segs[i].end = segs[i+1].start
		}
	}
	return segs, nil
}

// decodeSegment Markov-decodes segs[si] out of raw, where its bytes
// start at raw[segs[si].local], from context 0: the one decode walk
// behind whole-image predecode (and so the JIT and the inspector), XIP
// image validation, and XIP page faults. Every unit must end inside the
// segment, so a block offset off the unit grid is corrupt. With a nil t
// it only validates and allocates nothing; otherwise the units are
// expanded and appended to t under their original offsets, entered in
// t.idx, and each unit's nextIdx holds its successor's position in raw
// (-1 when the successor is not in raw) until link resolves it.
func (o *Object) decodeSegment(t *unitTable, raw []byte, segs []segment, si int) error {
	s := &segs[si]
	local := s.local
	base := s.start - local // original offset = local + base
	end := s.end - base
	// The segment's last unit falls through to the next segment in code
	// order, which is in raw only when it was packed into the same page.
	seam := int32(-1)
	if si+1 < len(segs) && segs[si+1].page == s.page {
		seam = segs[si+1].local
	}
	ctx := 0
	for local < end {
		first := int32(0)
		if t != nil {
			first = int32(len(t.code))
		}
		pid, next, err := o.decodeUnitIn(t, raw, local, ctx)
		if err != nil {
			return err
		}
		if next > end {
			return fmt.Errorf("%w: unit at %d overruns block boundary %d", ErrCorrupt, base+local, s.end)
		}
		if t != nil {
			succ := next
			if next == end {
				succ = seam
			}
			t.idx[local] = int32(len(t.units))
			t.units = append(t.units, predUnit{
				off:     base + local,
				next:    base + next,
				nextIdx: succ,
				first:   first,
				n:       int32(len(t.code)) - first,
				pid:     int32(pid),
				isBlock: s.isBlock && local == s.local,
			})
		}
		ctx = pid + 1
		local = next
	}
	return nil
}

// link turns each unit's successor position, which decodeSegment left
// in nextIdx, into the successor's unit index through t.idx, so
// fall-through dispatches without an offset lookup; a successor that
// is not in this table stays -1.
func (t *unitTable) link() {
	for i := range t.units {
		if p := t.units[i].nextIdx; p >= 0 {
			t.units[i].nextIdx = t.idx[p]
		}
	}
}

// predecode returns the cached predecoded image, building it on first
// use. It fails with ErrCorrupt when any unit of the image fails to
// decode; Run, BuildXIP and Inspect all return that error before
// executing or attributing anything, as the JIT returns the same
// error from its own buildPredecode.
func (o *Object) predecode() (*predecoded, error) {
	o.predOnce.Do(func() {
		o.pred, o.predErr = o.buildPredecode()
	})
	return o.pred, o.predErr
}

// buildPredecode decodes every segment of the image into one table.
func (o *Object) buildPredecode() (*predecoded, error) {
	segs, err := o.segments()
	if err != nil {
		return nil, err
	}
	p := &predecoded{blockUnit: make([]int32, len(o.Blocks))}
	p.reset(len(o.Code))
	for i := range segs {
		if err := o.decodeSegment(&p.unitTable, o.Code, segs, i); err != nil {
			return nil, err
		}
	}
	p.link()
	for b, off := range o.Blocks {
		p.blockUnit[b] = p.idx[off]
	}
	return p, nil
}
