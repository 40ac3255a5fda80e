package brisc

import (
	"fmt"

	"repro/internal/vm"
)

// unitTable is decoded code in directly dispatchable form: each unit
// becomes a span in a flat instruction array plus the metadata the
// dispatch loop needs — successor offset, successor unit index, pattern
// id for the Markov context, and whether it opens a block. Units keep
// speaking original code byte offsets (the interpreter's PC, return
// addresses, and block table all do), so one table type serves both
// the whole image and a single faulted-in XIP page.
type unitTable struct {
	units []predUnit
	code  []vm.Instr // expanded instructions, units back to back

	// offIdx maps a unit's byte offset to its index in units; execution
	// can land off-grid only through computed jumps (RJR/EPI to a
	// corrupted return address), which fall back to the one-unit
	// decoder.
	offIdx map[int32]int32
}

type predUnit struct {
	off     int32 // byte offset of this unit in Obj.Code
	next    int32 // byte offset of the following unit (CALL return address)
	nextIdx int32 // units index at offset next; -1 when next is off-table
	first   int32 // index of the unit's first instruction in code
	n       int32 // instruction count
	pid     int32 // pattern id (Markov context for the successor)
	isBlock bool  // unit sits at a block boundary (entered with ctx 0)
}

// predecoded is a BRISC image decoded once, up front: the whole image
// as one unit table — the same walk the JIT front end performs — plus
// the block-to-unit map that lets jumpBlock skip the offset lookup.
// The decoded form is cached on the Object (it is immutable), so
// repeated Runs and the JIT share one decode.
type predecoded struct {
	unitTable

	// blockUnit maps block index -> unit index, resolving jumpBlock
	// without the offset map.
	blockUnit []int32
}

// segment is a block-aligned byte range of the code stream. Every block
// starts at Markov context 0, so each segment decodes on its own; XIP
// additionally records where the segment was packed.
type segment struct {
	start, end int32 // [start,end) in original Obj.Code coordinates
	isBlock    bool  // start is a block offset (false only for a preamble)
	page       int32 // XIP page the segment was packed into
	local      int32 // offset of start within the page's raw bytes
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
			segs = append(segs, segment{start: b, isBlock: true})
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

// decodeSegment Markov-decodes segment s out of raw, where its bytes
// start at raw[local], from context 0: the one walk behind whole-image
// predecode, XIP image validation, and XIP page faults. Every unit must
// end inside the segment, so a block offset off the unit grid is
// corrupt. With a nil t it only validates; otherwise the units are
// expanded and appended to t under their original offsets (nextIdx is
// left for link).
func (o *Object) decodeSegment(t *unitTable, raw []byte, s *segment, local int32) error {
	base := s.start - local // original offset = local + base
	end := s.end - base
	ctx := 0
	for local < end {
		pid, vals, next, err := o.decodeUnitIn(raw, local, ctx)
		if err != nil {
			return err
		}
		if next > end {
			return fmt.Errorf("%w: unit at %d overruns block boundary %d", ErrCorrupt, base+local, s.end)
		}
		if t != nil {
			first := int32(len(t.code))
			if t.code, err = o.Dict[pid].expand(t.code, vals); err != nil {
				return err
			}
			t.offIdx[base+local] = int32(len(t.units))
			t.units = append(t.units, predUnit{
				off:     base + local,
				next:    base + next,
				nextIdx: -1,
				first:   first,
				n:       int32(len(t.code)) - first,
				pid:     int32(pid),
				isBlock: s.isBlock && base+local == s.start,
			})
		}
		ctx = pid + 1
		local = next
	}
	return nil
}

// link chains each unit to its successor when the successor is in the
// same table, so fall-through dispatches without an offset lookup.
func (t *unitTable) link() {
	for i := range t.units {
		if idx, ok := t.offIdx[t.units[i].next]; ok {
			t.units[i].nextIdx = idx
		}
	}
}

// predecode returns the cached predecoded image, building it on first
// use. It fails — and the interpreter falls back to stepwise decoding,
// preserving the valid-prefix semantics of corrupt objects — when any
// unit of the image fails to decode.
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
	p := &predecoded{
		unitTable: unitTable{offIdx: make(map[int32]int32, len(o.Code)/2)},
		blockUnit: make([]int32, len(o.Blocks)),
	}
	for i := range segs {
		if err := o.decodeSegment(&p.unitTable, o.Code, &segs[i], segs[i].start); err != nil {
			return nil, err
		}
	}
	p.link()
	for b, off := range o.Blocks {
		p.blockUnit[b] = p.offIdx[off]
	}
	return p, nil
}
