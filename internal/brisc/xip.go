package brisc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/guard"
	"repro/internal/integrity"
)

// Execute-in-place (XIP): run a BRISC image straight out of its page
// store. The image's code stream is cut at basic-block boundaries into
// segments — every block starts at Markov context 0, so each segment is
// independently decodable from its raw byte range — and the segments
// are packed into pages of at most PageSize bytes. A page holds exactly
// the BRISC bytes of its segments, unpadded, sealed with a CRC32C
// trailer: BRISC is already the compressed form, so a fault is a CRC
// check, with no second coder underneath. The interpreter faults pages
// in on jump and fall-through targets and keeps them in a bounded LRU
// cache. A fault decodes nothing: a segment is predecoded, into the
// same flat unit table the whole-image fast path uses, the first time
// a run enters it while its page is resident, so code a run never
// enters is never decoded. Peak resident decoded memory is therefore
// the working set, not the image — the paper's memory scenario, with
// the decode cost paid per segment entered instead of up front.
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
// page tables plus the page store. Build once, share across
// interpreters; per-run cache state lives on the Interp.
type XIPImage struct {
	obj      *Object
	store    *PageStore
	pageSize int
	segs     []segment // sorted by start (original-code order)
	pageSegs [][]int32 // page -> segment indices in layout order
	pageLen  []int32   // code bytes per page
}

// PageStore is the serialized page image an XIPImage faults out of:
//
//	"PGS1" | version(2) | uvarint pageSize | uvarint nPages |
//	nPages × uvarint pageLen | nPages × (page bytes | CRC32C(page bytes))
//
// Page i holds exactly the BRISC bytes of the segments packed into it,
// in layout order. Every header field is a function of the object and
// the layout options, so OpenXIPStore checks each one against the
// layout it computed rather than trusting it. The store holds no
// mutable state, so one PageStore serves Page calls from many
// goroutines.
type PageStore struct {
	data  []byte
	pages [][]byte // page i with its CRC trailer, aliasing data
}

var storeMagic = []byte("PGS1")

// storeVersion 2 replaced per-page flatezip frames with raw CRC-framed
// pages.
const storeVersion = 2

// Page verifies page i's CRC and returns its code bytes, aliasing the
// store. The check runs on every call, so a page damaged after the
// store was opened is caught on its next fault.
func (s *PageStore) Page(i int) ([]byte, error) {
	if i < 0 || i >= len(s.pages) {
		return nil, fmt.Errorf("%w: page %d of %d", ErrCorrupt, i, len(s.pages))
	}
	raw, err := integrity.SplitChecksum(s.pages[i], "page store")
	if err != nil {
		return nil, fmt.Errorf("%w: page %d: %w", ErrCorrupt, i, err)
	}
	return raw, nil
}

// storeHeader lists the varint header fields of x's page store: page
// size, page count, then each page's length.
func (x *XIPImage) storeHeader() []int {
	h := make([]int, 0, 2+len(x.pageLen))
	h = append(h, x.pageSize, len(x.pageLen))
	for _, n := range x.pageLen {
		h = append(h, int(n))
	}
	return h
}

// BuildXIP cuts o's code stream into block-aligned segments, packs
// them into pages (profile-driven when opt.BlockCounts is set), and
// seals the result in a page store, opened through the same parser as
// OpenXIPStore. It fails with decodeImage's ErrCorrupt when the image
// does not decode cleanly end to end, as Run and the JIT do for the
// same image.
func BuildXIP(o *Object, opt XIPOptions) (*XIPImage, error) {
	x, err := buildXIPMeta(o, opt)
	if err != nil {
		return nil, err
	}
	data := append([]byte(nil), storeMagic...)
	data = append(data, storeVersion)
	for _, v := range x.storeHeader() {
		data = binary.AppendUvarint(data, uint64(v))
	}
	for _, segs := range x.pageSegs {
		start := len(data)
		for _, si := range segs {
			s := &x.segs[si]
			data = append(data, o.Code[s.start:s.end]...)
		}
		data = integrity.AppendChecksum(data, data[start:])
	}
	if x.store, err = x.openStore(data); err != nil {
		return nil, err
	}
	return x, nil
}

// StoreBytes returns a copy of the serialized page store.
func (x *XIPImage) StoreBytes() []byte { return append([]byte(nil), x.store.data...) }

// OpenXIPStore rebuilds the XIP tables for o and attaches a serialized
// page store (as produced by StoreBytes). The layout options must
// match the ones the store was built with; a header that disagrees
// with the layout is rejected as corrupt. Page payloads stay
// unverified until faulted, so a tampered page surfaces as a typed
// error on the faulting path, mid-execution. data is retained, not
// copied.
func OpenXIPStore(o *Object, data []byte, opt XIPOptions) (*XIPImage, error) {
	x, err := buildXIPMeta(o, opt)
	if err != nil {
		return nil, err
	}
	if x.store, err = x.openStore(data); err != nil {
		return nil, err
	}
	return x, nil
}

// openStore parses data as x's page store. Each header field must
// equal the value x's layout implies, so after the header one exact
// total-length check bounds every page.
func (x *XIPImage) openStore(data []byte) (*PageStore, error) {
	if len(data) < len(storeMagic)+1 {
		return nil, fmt.Errorf("%w: page store header", ErrTruncated)
	}
	if !bytes.Equal(data[:len(storeMagic)], storeMagic) {
		return nil, fmt.Errorf("%w: page store magic", ErrCorrupt)
	}
	if v := data[len(storeMagic)]; v != storeVersion {
		return nil, fmt.Errorf("%w: page store version %d (decoder speaks %d)", ErrVersion, v, storeVersion)
	}
	pos := len(storeMagic) + 1
	for i, want := range x.storeHeader() {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: page store %s", ErrTruncated, storeField(i))
		}
		if v != uint64(want) {
			return nil, fmt.Errorf("%w: page store %s is %d, layout wants %d", ErrCorrupt, storeField(i), v, want)
		}
		pos += n
	}
	want := len(x.pageLen) * integrity.ChecksumLen
	for _, n := range x.pageLen {
		want += int(n)
	}
	if len(data)-pos != want {
		return nil, fmt.Errorf("%w: page store holds %d page bytes, layout wants %d", ErrCorrupt, len(data)-pos, want)
	}
	s := &PageStore{data: data, pages: make([][]byte, len(x.pageLen))}
	for p, n := range x.pageLen {
		end := pos + int(n) + integrity.ChecksumLen
		s.pages[p] = data[pos:end:end]
		pos = end
	}
	return s, nil
}

// storeField names header field i for error messages.
func storeField(i int) string {
	switch i {
	case 0:
		return "page size"
	case 1:
		return "page count"
	}
	return fmt.Sprintf("page %d length", i-2)
}

// NumPages reports the page count of the image.
func (x *XIPImage) NumPages() int { return len(x.pageLen) }

// PageSize reports the maximum code bytes per page (after rounding up
// to the longest segment).
func (x *XIPImage) PageSize() int { return x.pageSize }

// Store exposes the backing page store.
func (x *XIPImage) Store() *PageStore { return x.store }

// buildXIPMeta validates the image, cuts it into segments, and assigns
// segments to pages — everything except materializing the store. Every
// segment must decode (the contract decodeImage enforces), so a corrupt
// image is rejected at build time, before any page is faulted, and
// every segment of a faulted page decodes on its own.
func buildXIPMeta(o *Object, opt XIPOptions) (*XIPImage, error) {
	if _, err := o.decodeWhole(nil, nil, nil); err != nil {
		return nil, err
	}
	segs, err := o.segments()
	if err != nil {
		return nil, err
	}
	x := &XIPImage{obj: o, segs: segs}
	maxSeg := 0
	for _, s := range segs {
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
// (predUnit plus its unit-index entry). The budget this prices is
// the cache's working set; exact malloc accounting is not the point —
// monotone growth per decoded page is.
const (
	xipInstrFootprint = 12
	xipUnitFootprint  = 48
)

// xipPage is one page resident in the cache: a copy of its verified
// bytes, and the units of the segments entered since it faulted in, in
// the same table form a whole-image decode uses, addressed by original
// code offsets. A segment is decoded exactly when idx holds a unit at
// its first byte; the fault resets idx, so no mark outlives the
// residency. An evicted page goes to the runtime's free list, and the
// next fault reuses its buffers.
type xipPage struct {
	unitTable
	raw        []byte // the page's bytes, copied when its CRC passed
	id         int32
	bytes      int64    // decoded footprint of the segments decoded so far
	prev, next *xipPage // LRU list, nil-terminated both ends; next also chains the free list
}

// nextUndecoded is the nextIdx of a unit whose successor starts a
// segment of the same page that is not decoded yet. resolve decodes
// that segment and counts neither a hit nor a page use, since a
// decoded successor is entered without a resolve; once it is decoded,
// the predecessor's nextIdx points at it, and a fall-through that
// still resolves counts as a hit.
const nextUndecoded = -2

// xipRuntime is the per-Interp paged-execution state: the bounded LRU
// cache of pages plus fault/hit/eviction/decode accounting. Telemetry
// counters are batched here and published by FlushTelemetry.
type xipRuntime struct {
	img      *XIPImage
	maxPages int   // page-count budget (0 = unbounded)
	maxBytes int64 // decoded-byte budget (0 = unbounded)

	pages    []*xipPage // by page id; nil when not resident
	nres     int        // resident page count
	mru, lru *xipPage
	free     *xipPage // evicted pages, most recently evicted first
	resident int64    // decoded bytes currently cached
	// rawSlab backs every page table's raw copy, one page size each,
	// sized for as many tables as the budgets let exist.
	rawSlab []byte

	faults, hits, evictions, segDecodes                             int64
	flushedFaults, flushedHits, flushedEvictions, flushedSegDecodes int64
	peakBytes                                                       int64
	peakPages                                                       int
}

// XIPStats is a point-in-time snapshot of the paged-execution cache.
// SegmentDecodes counts segments decoded on first entry; a fault
// decodes none.
type XIPStats struct {
	Faults, Hits, Evictions int64
	SegmentDecodes          int64
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
// drops cache contents and counters. Any whole-image table an earlier
// Run decoded is dropped, so paged runs never chain jumps through it.
func (it *Interp) EnableXIP(img *XIPImage, maxPages, maxBytes int) error {
	if img.obj != it.Obj {
		return fmt.Errorf("brisc: XIP image was built from a different object")
	}
	it.image = nil
	tables := img.NumPages()
	if maxPages > 0 {
		tables = min(tables, maxPages)
	}
	it.xip = &xipRuntime{
		img:      img,
		maxPages: maxPages,
		maxBytes: int64(maxBytes),
		pages:    make([]*xipPage, img.NumPages()),
		rawSlab:  make([]byte, 0, tables*img.pageSize),
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
		SegmentDecodes:    rt.segDecodes,
		ResidentPages:     rt.nres,
		ResidentBytes:     rt.resident,
		PeakResidentPages: rt.peakPages,
		PeakResidentBytes: rt.peakBytes,
	}
}

// reset drops cache contents and counters, keeping image and budgets.
// The dropped pages join the free list, so the next run's faults
// decode into their tables.
func (rt *xipRuntime) reset() {
	for rt.lru != nil {
		rt.evictLRU()
	}
	rt.faults, rt.hits, rt.evictions, rt.segDecodes = 0, 0, 0, 0
	rt.flushedFaults, rt.flushedHits, rt.flushedEvictions, rt.flushedSegDecodes = 0, 0, 0, 0
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
	return (rt.maxPages > 0 && rt.nres > rt.maxPages) ||
		(rt.maxBytes > 0 && rt.resident > rt.maxBytes)
}

// evict trims least-recently-used pages until the cache is back under
// budget. keep — the page the interpreter is about to enter — is
// pinned; with a budget smaller than one page it remains the sole
// resident page.
func (rt *xipRuntime) evict(keep *xipPage) {
	for rt.over() {
		if rt.lru == nil || rt.lru == keep {
			return
		}
		rt.evictLRU()
	}
}

// evictLRU unlinks the least-recently-used page and pushes it onto the
// free list.
func (rt *xipRuntime) evictLRU() {
	v := rt.lru
	if v.prev != nil {
		v.prev.next = nil
	}
	rt.lru = v.prev
	if rt.mru == v {
		rt.mru = nil
	}
	rt.pages[v.id] = nil
	rt.nres--
	rt.resident -= v.bytes
	rt.evictions++
	v.prev, v.next = nil, rt.free
	rt.free = v
}

// resolve maps an original code offset to its page's unit table and
// unit index, faulting the page in and decoding the offset's segment
// if needed. An offset outside every segment (past the end of code) or
// inside a segment but off the unit grid (a computed jump into the
// middle of a unit) is the whole-image interpreter's offGrid trap.
func (rt *xipRuntime) resolve(it *Interp, g *guard.Gov, off int32) (*unitTable, int32, error) {
	segs := rt.img.segs
	si := sort.Search(len(segs), func(i int) bool { return segs[i].end > off })
	if si >= len(segs) || off < segs[si].start {
		return nil, -1, offGrid(off)
	}
	s := &segs[si]
	pg := rt.pages[s.page]
	switch {
	case pg == nil:
		var err error
		if pg, err = rt.fault(it, s.page); err != nil {
			return nil, -1, err
		}
	case it.unitIdx != nextUndecoded || pg.idx[s.local] >= 0:
		rt.hits++
		rt.moveFront(pg)
	}
	if pg.idx[s.local] < 0 {
		if err := rt.decode(it, g, pg, si); err != nil {
			return nil, -1, err
		}
	}
	idx := pg.idx[s.local+off-s.start]
	if idx < 0 {
		return nil, -1, offGrid(off)
	}
	return &pg.unitTable, idx, nil
}

// fault verifies page pid's CRC, copies its bytes into a page table
// (the one of the page just evicted, when the page-count budget is
// full: at a one-page budget, the page being left) and inserts it at
// the front of the LRU list, with no segment decoded. Corruption
// detected by the store's CRC check surfaces as ErrCorrupt. Segments
// decode from the copy, so a store damaged while its page is resident
// never reaches the decoder unverified.
func (rt *xipRuntime) fault(it *Interp, pid int32) (*xipPage, error) {
	rt.faults++
	if it.XIPFault != nil {
		it.XIPFault(pid)
	}
	raw, err := rt.img.store.Page(int(pid))
	if err != nil {
		return nil, fmt.Errorf("brisc: xip fault on page %d: %w", pid, err)
	}
	for rt.maxPages > 0 && rt.nres >= rt.maxPages {
		rt.evictLRU()
	}
	pg := rt.free
	if pg != nil {
		rt.free, pg.next = pg.next, nil
	} else {
		pg = &xipPage{raw: carve(&rt.rawSlab, rt.img.pageSize)}
	}
	pg.id = pid
	pg.raw = append(pg.raw[:0], raw...)
	pg.reset(len(raw))
	pg.bytes = 0
	rt.pages[pid] = pg
	rt.nres++
	rt.moveFront(pg)
	if rt.nres > rt.peakPages {
		rt.peakPages = rt.nres
	}
	return pg, nil
}

// decode predecodes segment si into its resident page pg on the run's
// first entry, chains in-page fall-through both ways (into the next
// segment in code order when it is decoded, and from the previous one
// when that is), charges the segment's decoded footprint to the cache
// and the memory governor, and evicts over the byte budget, keeping
// pg. A decode failure behind a colliding CRC is ErrCorrupt, and
// leaves the segment undecoded.
func (rt *xipRuntime) decode(it *Interp, g *guard.Gov, pg *xipPage, si int) error {
	segs := rt.img.segs
	s := segs[si]
	t := &pg.unitTable
	u0, c0 := len(t.units), len(t.code)
	// The segment's last unit falls through to the next segment in code
	// order, which is in this page only when it was packed into it.
	seam := int32(-1)
	if si+1 < len(segs) && segs[si+1].page == pg.id {
		seam = segs[si+1].local
	}
	if _, err := rt.img.obj.decodeSegment(t, nil, pg.raw, s, seam); err != nil {
		for _, u := range t.units[u0:] {
			t.idx[u.off-s.start+s.local] = -1
		}
		t.units, t.code = t.units[:u0], t.code[:c0]
		return fmt.Errorf("brisc: xip page %d: %w", pg.id, err)
	}
	rt.segDecodes++
	t.link(u0)
	if p := si - 1; p >= 0 && segs[p].page == pg.id {
		if k := t.idx[segs[p].local]; k >= 0 {
			for t.units[k].next != s.start {
				k++
			}
			t.units[k].nextIdx = int32(u0)
		}
	}
	n := int64(len(t.code)-c0)*xipInstrFootprint + int64(len(t.units)-u0)*xipUnitFootprint
	pg.bytes += n
	rt.resident += n
	rt.evict(pg)
	if rt.resident > rt.peakBytes {
		rt.peakBytes = rt.resident
	}
	if g != nil {
		if err := g.CheckMemAt(len(it.Mem)+int(rt.resident), int64(it.PC), it.Steps); err != nil {
			it.recordTrap(err)
			return err
		}
	}
	return nil
}
