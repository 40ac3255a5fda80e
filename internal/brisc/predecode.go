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
// faulted-in XIP page. Each table has exactly one owner — an Interp's
// whole image, one Inspect call, or one XIP page slot of one Interp —
// and none is shared or kept on the Object, which holds no decoded
// code. The JIT builds no unit table: its decode keeps only the
// instructions and each block's first instruction (decodeWhole).
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
// code byte, so a whole-image decode fills its tables without
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

// forSegments calls fn on each segment of the code stream in order:
// one at offset 0 when the first block starts later (a preamble), then
// one at every distinct block offset. Block offsets must be ascending
// and inside the code; one that is off the unit grid surfaces when its
// segments are decoded. Nothing is allocated.
func (o *Object) forSegments(fn func(s segment) error) error {
	n := int32(len(o.Code))
	var cur segment
	open := n > 0 && (len(o.Blocks) == 0 || o.Blocks[0] != 0)
	for i, b := range o.Blocks {
		if b < 0 || b >= n || (i > 0 && b < o.Blocks[i-1]) {
			return fmt.Errorf("%w: block %d offset %d out of order or beyond code", ErrCorrupt, i, b)
		}
		if i > 0 && b == o.Blocks[i-1] {
			continue
		}
		if open {
			cur.end = b
			if err := fn(cur); err != nil {
				return err
			}
		}
		cur, open = segment{start: b, isBlock: true, local: b}, true
	}
	if !open {
		return nil
	}
	cur.end = n
	return fn(cur)
}

// segments lists forSegments' segments, for the XIP layout.
func (o *Object) segments() ([]segment, error) {
	segs := make([]segment, 0, len(o.Blocks)+1)
	err := o.forSegments(func(s segment) error {
		segs = append(segs, s)
		return nil
	})
	return segs, err
}

// decodeSegment Markov-decodes segment s out of raw, where its bytes
// start at raw[s.local], from context 0: the one per-unit walk behind
// every decode (whole images through decodeWhole, XIP segments), and
// so behind the interpreter, the JIT, the inspector and XIP
// validation. Every unit must end inside the segment, so a block
// offset off the unit grid is corrupt. It returns the number of units.
// A non-nil t receives the decode: each unit's instructions are
// appended to t.code, and the unit is recorded under its original
// offset and entered in t.idx; each unit's nextIdx holds its
// successor's position in raw until link resolves it: the segment's
// last unit falls through to seam, the position in raw of the next
// segment in code order, or -1 when that segment is not in raw. With
// t nil, the instructions go to *code alone (the JIT's table-less
// decode), and with both nil the walk only validates and allocates
// nothing.
func (o *Object) decodeSegment(t *unitTable, code *[]vm.Instr, raw []byte, s segment, seam int32) (int, error) {
	dst := code
	if t != nil {
		dst = &t.code
	}
	local := s.local
	base := s.start - local // original offset = local + base
	end := s.end - base
	ctx, units := 0, 0
	for local < end {
		first := 0
		if dst != nil {
			first = len(*dst)
		}
		pid, next, err := o.decodeUnitIn(dst, raw, local, ctx)
		if err != nil {
			return units, err
		}
		if next > end {
			return units, fmt.Errorf("%w: unit at %d overruns block boundary %d", ErrCorrupt, base+local, s.end)
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
				first:   int32(first),
				n:       int32(len(t.code) - first),
				pid:     int32(pid),
				isBlock: s.isBlock && local == s.local,
			})
		}
		units++
		ctx = pid + 1
		local = next
	}
	return units, nil
}

// link turns the successor position that decodeSegment left in
// nextIdx, for each unit from the from'th on, into the successor's
// unit index through t.idx, so fall-through dispatches without an
// offset lookup. A successor that is not in raw stays -1, and one that
// is but is not decoded (only an XIP page decodes segment by segment)
// becomes nextUndecoded.
func (t *unitTable) link(from int) {
	for i := from; i < len(t.units); i++ {
		if p := t.units[i].nextIdx; p >= 0 {
			if t.units[i].nextIdx = t.idx[p]; t.units[i].nextIdx < 0 {
				t.units[i].nextIdx = nextUndecoded
			}
		}
	}
}

// decodeWhole is the one whole-image segment walk: it decodes every
// segment of the code stream in order through decodeSegment, with t
// and code as there, and returns the number of units. A non-nil
// blockInstr (one entry per block), which only the table-less decode
// passes, receives each block's first instruction index in *code. An
// image that fails to decode anywhere fails with ErrCorrupt.
func (o *Object) decodeWhole(t *unitTable, code *[]vm.Instr, blockInstr []int32) (int, error) {
	units, b := 0, 0
	err := o.forSegments(func(s segment) error {
		for ; blockInstr != nil && b < len(o.Blocks) && o.Blocks[b] == s.start; b++ {
			blockInstr[b] = int32(len(*code))
		}
		// The whole image is one raw buffer, so the next segment starts
		// where this one ends.
		seam := s.end
		if int(seam) == len(o.Code) {
			seam = -1
		}
		n, err := o.decodeSegment(t, code, o.Code, s, seam)
		units += n
		return err
	})
	return units, err
}

// decodeImage decodes every segment of the image into one unit table:
// the whole-image decode behind Interp.Run and Inspect. Each call
// returns a table of its own, which its caller owns.
func (o *Object) decodeImage() (*unitTable, error) {
	t := &unitTable{}
	t.reset(len(o.Code))
	if _, err := o.decodeWhole(t, nil, nil); err != nil {
		return nil, err
	}
	t.link(0)
	return t, nil
}
