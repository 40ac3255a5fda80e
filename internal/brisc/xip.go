package brisc

import (
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/paging"
)

// Execute-in-place (XIP): run a BRISC image straight out of the
// compressed page store. The image's code stream is cut at basic-block
// boundaries into segments — every block starts at Markov context 0,
// so each segment is independently decodable from its raw byte range —
// and the segments are packed into fixed-size pages backed by a
// paging.Store (per-page flatezip + CRC32C). The interpreter faults
// pages in on jump and fall-through targets, predecodes each page into
// the same flat handler+operand representation the whole-image fast
// path uses, and keeps decoded pages in a bounded LRU cache. Peak
// resident decoded memory is therefore the working set, not the image
// — the paper's memory scenario, with the decode cost paid per fault
// instead of up front.
//
// Profile-driven layout: when XIPOptions.BlockCounts is set (from a
// `compscope hot -json` join or BlockCountsFromTrace), executed
// segments are packed ahead of never-executed ones, so hot-together
// blocks share pages and the cold tail of the image never pollutes the
// cache. Ozturk et al. (PAPERS.md) show the miss rate of
// an execute-from-compressed scheme is dominated by exactly this
// placement decision.

// DefaultXIPPageSize is the raw (compressed-stream) bytes per page when
// XIPOptions.PageSize is unset. Smaller than the 4096-byte paging
// default because a page of BRISC bytes expands ~10x when predecoded.
const DefaultXIPPageSize = 512

// XIPOptions configures BuildXIP and OpenXIPStore.
type XIPOptions struct {
	// PageSize is the raw code bytes per page (<= 0 selects
	// DefaultXIPPageSize). It is rounded up to the longest single
	// segment so a basic block never straddles a page seam.
	PageSize int

	// BlockCounts, when non-nil, turns on profile-driven layout: keys
	// are block byte offsets, values execution counts (see
	// BlockCountsFromTrace and `compscope hot -json`). Executed blocks
	// are packed first, in original order — preserving fall-through
	// chains — and never-executed blocks are exiled to the tail, so the
	// working set occupies the fewest possible pages. The partition is
	// stable, so layout is deterministic.
	BlockCounts map[int32]int64
}

// XIPImage is the immutable paged form of one Object: the segment and
// page tables plus the compressed page store. Build once, share across
// interpreters; per-run cache state lives on the Interp.
type XIPImage struct {
	obj      *Object
	store    *paging.Store
	pageSize int
	segs     []segment // sorted by start (original-code order)
	pageSegs [][]int32 // page -> segment indices in layout order
	pageLen  []int32   // used raw bytes per page (rest is padding)
}

// BuildXIP cuts o's code stream into block-aligned segments, packs
// them into pages (profile-driven when opt.BlockCounts is set), and
// seals the result in a compressed page store. It fails — and callers
// should fall back to the non-paged interpreter — when the image does
// not decode cleanly end to end, mirroring predecode's corrupt-image
// contract.
func BuildXIP(o *Object, opt XIPOptions) (*XIPImage, error) {
	x, err := buildXIPMeta(o, opt)
	if err != nil {
		return nil, err
	}
	image := make([]byte, len(x.pageLen)*x.pageSize)
	for p, segs := range x.pageSegs {
		base := int32(p) * int32(x.pageSize)
		for _, si := range segs {
			s := &x.segs[si]
			copy(image[base+s.local:], o.Code[s.start:s.end])
		}
	}
	x.store = paging.NewStore(image, x.pageSize)
	return x, nil
}

// StoreBytes serializes the image's page store (PGS1 container).
func (x *XIPImage) StoreBytes() []byte { return x.store.Encode() }

// OpenXIPStore rebuilds the XIP tables for o and attaches a
// deserialized PGS1 page store (as produced by StoreBytes). The layout
// options must match the ones the store was built with; a geometry
// mismatch is rejected as corrupt. Page payloads stay unverified until
// faulted, so a tampered page surfaces as a typed error on the
// faulting path, mid-execution.
func OpenXIPStore(o *Object, data []byte, opt XIPOptions) (*XIPImage, error) {
	x, err := buildXIPMeta(o, opt)
	if err != nil {
		return nil, err
	}
	st, err := paging.OpenStore(data)
	if err != nil {
		return nil, err
	}
	if st.PageSize() != x.pageSize || st.NumPages() != len(x.pageLen) {
		return nil, fmt.Errorf("%w: page store is %d pages of %d bytes, layout wants %d of %d",
			ErrCorrupt, st.NumPages(), st.PageSize(), len(x.pageLen), x.pageSize)
	}
	x.store = st
	return x, nil
}

// NumPages reports the page count of the image.
func (x *XIPImage) NumPages() int { return len(x.pageLen) }

// PageSize reports the raw bytes per page (after rounding up to the
// longest segment).
func (x *XIPImage) PageSize() int { return x.pageSize }

// Store exposes the backing page store, e.g. to attach a telemetry
// recorder for the paging.* fault counters.
func (x *XIPImage) Store() *paging.Store { return x.store }

// buildXIPMeta validates the image, cuts it into segments, and assigns
// segments to pages — everything except materializing the store. Every
// segment must decode (the contract predecode enforces), so a paged run
// of a corrupt image fails at build time — the caller then falls back
// to the stepwise valid-prefix path — and every page fault can decode
// its segments independently.
func buildXIPMeta(o *Object, opt XIPOptions) (*XIPImage, error) {
	segs, err := o.segments()
	if err != nil {
		return nil, err
	}
	x := &XIPImage{obj: o, segs: segs}
	maxSeg := 0
	for i := range segs {
		s := &segs[i]
		if err := o.decodeSegment(nil, o.Code, s, s.start); err != nil {
			return nil, err
		}
		if n := int(s.end - s.start); n > maxSeg {
			maxSeg = n
		}
	}
	x.pageSize = opt.PageSize
	if x.pageSize <= 0 {
		x.pageSize = DefaultXIPPageSize
	}
	if x.pageSize < maxSeg {
		x.pageSize = maxSeg // a block never straddles a page seam
	}

	// Layout order: original order, or a hot/cold partition under a
	// profile. Sorting hottest-first scatters each function's
	// fall-through chain across pages and measures *worse* than the
	// naive layout; the win comes from exiling never-executed blocks so
	// the working set packs densely while executed blocks keep their
	// original (chain-preserving) order. A block whose count is zero is
	// by definition never entered, so moving it cannot break an
	// executed fall-through. sort.SliceStable keeps each partition in
	// original order, so the result is deterministic.
	order := make([]int, len(x.segs))
	for i := range order {
		order[i] = i
	}
	if opt.BlockCounts != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return opt.BlockCounts[x.segs[order[a]].start] > 0 &&
				opt.BlockCounts[x.segs[order[b]].start] <= 0
		})
	}

	// Greedy packing in layout order: a segment that would overflow the
	// current page opens a new one.
	used := int32(0)
	for _, si := range order {
		s := &x.segs[si]
		n := s.end - s.start
		if len(x.pageSegs) == 0 || used+n > int32(x.pageSize) {
			x.pageSegs = append(x.pageSegs, nil)
			x.pageLen = append(x.pageLen, 0)
			used = 0
		}
		p := len(x.pageSegs) - 1
		s.page = int32(p)
		s.local = used
		x.pageSegs[p] = append(x.pageSegs[p], int32(si))
		used += n
		x.pageLen[p] = used
	}
	return x, nil
}

// BlockCountsFromTrace aggregates per-unit execution counts (keyed by
// unit byte offset, as an Interp.Trace hook observes them) into
// per-block counts keyed by block byte offset — the profile input the
// layout pass consumes. Units before the first block (a preamble) are
// dropped.
func BlockCountsFromTrace(o *Object, unitCounts map[int32]int64) map[int32]int64 {
	out := make(map[int32]int64)
	for off, n := range unitCounts {
		// Greatest block offset <= off.
		i := sort.Search(len(o.Blocks), func(i int) bool { return o.Blocks[i] > off })
		if i == 0 {
			continue
		}
		out[o.Blocks[i-1]] += n
	}
	return out
}

// ---- per-run decoded-page cache ----

// Decoded-footprint estimate per expanded instruction and per unit
// (predUnit plus its offset-index entry). The budget this prices is
// the cache's working set; exact malloc accounting is not the point —
// monotone growth per decoded page is.
const (
	xipInstrFootprint = 12
	xipUnitFootprint  = 48
)

// xipPage is one decoded page resident in the cache: the page's units
// in the same table form the whole-image predecode uses, addressed by
// original code offsets.
type xipPage struct {
	unitTable
	id         int32
	bytes      int64
	prev, next *xipPage // LRU list; nil-terminated both ends
}

// xipRuntime is the per-Interp paged-execution state: the bounded LRU
// cache of decoded pages plus fault/hit/eviction accounting. Telemetry
// counters are batched here and published by FlushTelemetry.
type xipRuntime struct {
	img      *XIPImage
	maxPages int   // page-count budget (0 = unbounded)
	maxBytes int64 // decoded-byte budget (0 = unbounded)

	pages    map[int32]*xipPage
	mru, lru *xipPage
	resident int64 // decoded bytes currently cached

	faults, hits, evictions                      int64
	flushedFaults, flushedHits, flushedEvictions int64
	peakBytes                                    int64
	peakPages                                    int
}

// XIPStats is a point-in-time snapshot of the paged-execution cache.
type XIPStats struct {
	Faults, Hits, Evictions int64
	ResidentPages           int
	ResidentBytes           int64
	PeakResidentPages       int
	PeakResidentBytes       int64
}

// EnableXIP switches the interpreter to demand-paged execution over
// img: pages fault in on jump/fall-through targets and at most
// maxPages decoded pages / maxBytes decoded bytes stay resident (0 =
// unbounded; a single page is always allowed, so a budget smaller than
// one page degrades to exactly-one-resident-page). img must have been
// built from the interpreter's Object. Reset preserves the setting but
// drops cache contents and counters.
func (it *Interp) EnableXIP(img *XIPImage, maxPages, maxBytes int) error {
	if img.obj != it.Obj {
		return fmt.Errorf("brisc: XIP image was built from a different object")
	}
	it.xip = &xipRuntime{
		img:      img,
		maxPages: maxPages,
		maxBytes: int64(maxBytes),
		pages:    make(map[int32]*xipPage),
	}
	return nil
}

// XIPStats snapshots the paged-execution counters; zero when XIP is
// not enabled.
func (it *Interp) XIPStats() XIPStats {
	rt := it.xip
	if rt == nil {
		return XIPStats{}
	}
	return XIPStats{
		Faults:            rt.faults,
		Hits:              rt.hits,
		Evictions:         rt.evictions,
		ResidentPages:     len(rt.pages),
		ResidentBytes:     rt.resident,
		PeakResidentPages: rt.peakPages,
		PeakResidentBytes: rt.peakBytes,
	}
}

// reset drops cache contents and counters, keeping image and budgets.
func (rt *xipRuntime) reset() {
	rt.pages = make(map[int32]*xipPage)
	rt.mru, rt.lru = nil, nil
	rt.resident = 0
	rt.faults, rt.hits, rt.evictions = 0, 0, 0
	rt.flushedFaults, rt.flushedHits, rt.flushedEvictions = 0, 0, 0
	rt.peakBytes, rt.peakPages = 0, 0
}

func (rt *xipRuntime) moveFront(pg *xipPage) {
	if rt.mru == pg {
		return
	}
	// Unlink.
	if pg.prev != nil {
		pg.prev.next = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	}
	if rt.lru == pg {
		rt.lru = pg.prev
	}
	// Push front.
	pg.prev = nil
	pg.next = rt.mru
	if rt.mru != nil {
		rt.mru.prev = pg
	}
	rt.mru = pg
	if rt.lru == nil {
		rt.lru = pg
	}
}

func (rt *xipRuntime) over() bool {
	return (rt.maxPages > 0 && len(rt.pages) > rt.maxPages) ||
		(rt.maxBytes > 0 && rt.resident > rt.maxBytes)
}

// evict trims least-recently-used pages until the cache is back under
// budget. keep — the page the interpreter is about to enter — is
// pinned; with a budget smaller than one page it remains the sole
// resident page.
func (rt *xipRuntime) evict(keep *xipPage) {
	for rt.over() {
		v := rt.lru
		if v == nil || v == keep {
			return
		}
		if v.prev != nil {
			v.prev.next = nil
		}
		rt.lru = v.prev
		if rt.mru == v {
			rt.mru = nil
		}
		v.prev, v.next = nil, nil
		delete(rt.pages, v.id)
		rt.resident -= v.bytes
		rt.evictions++
	}
}

// resolve maps an original code offset to its decoded page's unit
// table and unit index, faulting the page in if needed. A -1 index
// means off is outside every segment (past the end of code) or inside
// a page but off the unit grid (computed jump into the middle of a
// unit); the caller falls back to the stepwise decoder, preserving
// hostile-input semantics exactly.
func (rt *xipRuntime) resolve(it *Interp, g *guard.Gov, off int32) (*unitTable, int32, error) {
	segs := rt.img.segs
	si := sort.Search(len(segs), func(i int) bool { return segs[i].end > off })
	if si >= len(segs) || off < segs[si].start {
		return nil, -1, nil
	}
	pid := segs[si].page
	pg := rt.pages[pid]
	if pg != nil {
		rt.hits++
		rt.moveFront(pg)
	} else {
		var err error
		pg, err = rt.fault(it, g, pid)
		if err != nil {
			return nil, -1, err
		}
	}
	idx, ok := pg.offIdx[off]
	if !ok {
		return nil, -1, nil
	}
	return &pg.unitTable, idx, nil
}

// fault loads, verifies, and predecodes page pid, inserts it at the
// front of the LRU list, charges it against the memory governor, and
// evicts over-budget pages. Corruption detected by the store's CRC
// check (or a decode failure behind a colliding CRC) surfaces as a
// typed integrity error.
func (rt *xipRuntime) fault(it *Interp, g *guard.Gov, pid int32) (*xipPage, error) {
	rt.faults++
	if it.XIPFault != nil {
		it.XIPFault(pid)
	}
	raw, err := rt.img.store.Page(int(pid))
	if err != nil {
		return nil, fmt.Errorf("brisc: xip fault on page %d: %w", pid, err)
	}
	pg := &xipPage{id: pid, unitTable: unitTable{offIdx: make(map[int32]int32, 16)}}
	for _, si := range rt.img.pageSegs[pid] {
		s := &rt.img.segs[si]
		if err := rt.img.obj.decodeSegment(&pg.unitTable, raw, s, s.local); err != nil {
			return nil, fmt.Errorf("brisc: xip page %d: %w", pid, err)
		}
	}
	// Chain in-page fall-throughs so consecutive units dispatch without
	// re-touching the cache; cross-page successors stay -1 and resolve
	// through the fault path.
	pg.link()
	pg.bytes = int64(len(pg.code))*xipInstrFootprint + int64(len(pg.units))*xipUnitFootprint
	rt.pages[pid] = pg
	rt.moveFront(pg)
	rt.resident += pg.bytes
	rt.evict(pg)
	if rt.resident > rt.peakBytes {
		rt.peakBytes = rt.resident
	}
	if len(rt.pages) > rt.peakPages {
		rt.peakPages = len(rt.pages)
	}
	if g != nil {
		if err := g.CheckMemAt(len(it.Mem)+int(rt.resident), int64(it.PC), it.Steps); err != nil {
			it.recordTrap(err)
			return nil, err
		}
	}
	return pg, nil
}
