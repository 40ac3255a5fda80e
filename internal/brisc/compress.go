package brisc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Options tunes the compressor; the zero value requests the paper's
// configuration (K=20, B = P − W).
type Options struct {
	// K is the number of best candidates adopted per pass (paper: 20).
	K int
	// MaxPasses bounds the greedy loop (the paper's compressor stops
	// when a pass yields fewer than K useful candidates; this is a
	// safety bound on top).
	MaxPasses int
	// AbundantMemory sets B = P, ignoring decoder-table cost W.
	AbundantMemory bool
	// NoSpecialize disables operand specialization (ablation).
	NoSpecialize bool
	// NoCombine disables opcode combination (ablation).
	NoCombine bool
	// NoEPI disables the epilogue-macro peephole (the paper's epi).
	NoEPI bool

	// Workers bounds the candidate-scan and rewrite fan-out: 0 means one
	// worker per CPU (GOMAXPROCS), 1 forces the serial path. The knob
	// never changes the object — compressed bytes are identical for
	// every worker count (enforced by the determinism test suite).
	Workers int
	// Pool, when non-nil, supplies an externally shared bounded worker
	// pool (batch mode) and takes precedence over Workers.
	Pool *parallel.Pool
}

// pool resolves the runtime concurrency knobs into a worker pool; nil
// means "run serially on the caller".
func (o Options) pool(rec *telemetry.Recorder) *parallel.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	if w := parallel.DefaultWorkers(o.Workers); w > 1 {
		return parallel.NewTraced(w, rec)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 20
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = 50
	}
	return o
}

// unit is one encodable element of the working program: a run of
// concrete instructions currently covered by one dictionary pattern.
type unit struct {
	instrs []vm.Instr // concrete; FTgt operands hold block indices
	pat    int        // dictionary index
	vals   []int32    // unfixed operand values
	nib    int        // cached operand nibble count under pat
	block  bool       // unit starts a basic block
}

// Compress builds a BRISC object from a linked VM program.
func Compress(p *vm.Program, opt Options) (*Object, error) {
	return CompressTraced(p, opt, nil)
}

// CompressTraced is Compress with telemetry: a "brisc.compress" span
// wraps the run, each greedy pass gets a "brisc.pass" span with
// candidate/adoption counts, and adopted patterns accumulate the
// paper's P (program savings) and W (decoder table cost) counters.
// rec may be nil.
func CompressTraced(p *vm.Program, opt Options, rec *telemetry.Recorder) (*Object, error) {
	opt = opt.withDefaults()
	c := &compressor{opt: opt, rec: rec, pool: opt.pool(rec), sc: compressPool.Get()}
	defer c.release()
	sp := rec.StartSpan("brisc.compress", telemetry.Int("instrs_in", int64(len(p.Code))))
	defer sp.End()
	prog := p
	// Prepare: EPI peephole plus unit seeding. A named span so the
	// pre-scan work is attributed in trace analysis instead of showing
	// up as an unexplained gap inside brisc.compress.
	psp := rec.StartSpan("brisc.prepare", telemetry.Int("instrs_in", int64(len(p.Code))))
	if !opt.NoEPI {
		prog = peepholeEPI(p)
	}
	if err := c.buildUnits(prog); err != nil {
		psp.End()
		return nil, err
	}
	psp.SetAttr(telemetry.Int("units", int64(len(c.units))))
	psp.End()
	c.run()
	obj, err := c.finish(prog)
	if err != nil {
		return nil, err
	}
	if rec.Enabled() {
		sb := obj.Size()
		sp.SetAttr(
			telemetry.Int("passes", int64(c.passes)),
			telemetry.Int("units", int64(len(c.units))),
			telemetry.Int("patterns", int64(sb.NumPatterns)),
			telemetry.Int("code_bytes", int64(sb.CodeBytes)),
			telemetry.Int("total_bytes", int64(sb.TotalBytes)),
		)
		rec.Add("brisc.compress.instrs_in", int64(len(p.Code)))
		rec.Add("brisc.compress.code_bytes", int64(sb.CodeBytes))
		rec.Add("brisc.compress.total_bytes", int64(sb.CodeSize()))
	}
	return obj, nil
}

// CompressWithDict encodes a program against an externally trained
// dictionary (the learned patterns of another object) without growing
// it — the paper's closing example applies the dictionary built while
// compressing gcc-2.6.3 to the small salt() program, shrinking it from
// 60 to 17 bytes. dict should be a previously built Object's learned
// patterns (Object.LearnedDict).
func CompressWithDict(p *vm.Program, dict []Pattern, opt Options) (*Object, error) {
	opt = opt.withDefaults()
	c := &compressor{opt: opt, pool: opt.pool(nil), sc: compressPool.Get()}
	defer c.release()
	prog := p
	if !opt.NoEPI {
		prog = peepholeEPI(p)
	}
	if err := c.buildUnits(prog); err != nil {
		return nil, err
	}
	var ids []int
	for _, pat := range dict {
		h := patternHash(pat)
		if c.findDict(pat, h) >= 0 {
			continue
		}
		ids = append(ids, c.addDict(clonePattern(pat), h))
	}
	// Iterate rewriting so combined patterns can stack (a four-
	// instruction pattern applies only after its two-instruction
	// halves have merged their units).
	for i := 0; i < 8; i++ {
		c.rewrite(ids)
	}
	c.passes = 0
	return c.finish(prog)
}

// LearnedDict returns the object's non-base dictionary entries, in the
// form CompressWithDict accepts.
func (o *Object) LearnedDict() []Pattern {
	return o.Dict[vm.NumOpcodes:]
}

type compressor struct {
	opt   Options
	units []unit
	sc    *compressScratch

	// The dictionary plus its derived per-entry caches, all indexed by
	// pattern id and grown only through addDict so they stay in sync.
	// Patterns are immutable once installed, so the caches never
	// invalidate.
	dict          []Pattern
	dictIdx       map[uint64][]int // patternHash → ids, for dedupe
	flocCache     [][]floc         // unfixed-field locations
	specCache     [][]int          // -1 plus each specializable field
	dictCostCache []int            // dictEntryBytes

	// cands is the persistent candidate-statistics table: the exact sum
	// of per-anchor contributions over the current unit array. fullScan
	// builds it once; rewrite maintains it incrementally by retracting
	// the contributions of every anchor it is about to disturb and
	// re-scanning those anchors after committing. nil outside run()
	// (CompressWithDict never scans, so its rewrites skip the
	// bookkeeping).
	cands *candTable

	rec    *telemetry.Recorder
	pool   *parallel.Pool
	passes int
}

// release hands the compressor's grown buffers back to its scratch and
// recycles the scratch. The compressor must not be used afterwards;
// nothing reachable from a returned *Object aliases scratch memory.
func (c *compressor) release() {
	sc := c.sc
	c.sc = nil
	sc.dict, sc.flocs, sc.specs, sc.dictCost = c.dict, c.flocCache, c.specCache, c.dictCostCache
	compressPool.Put(sc)
}

// addDict installs p as a new dictionary entry under its precomputed
// hash and derives the per-entry caches the scanners read.
func (c *compressor) addDict(p Pattern, h uint64) int {
	id := len(c.dict)
	c.dict = append(c.dict, p)
	c.dictIdx[h] = append(c.dictIdx[h], id)
	var fl []floc
	for ii, pi := range p.Seq {
		fields := pi.Op.Fields()
		for fi, fx := range pi.Fixed {
			if !fx {
				fl = append(fl, floc{ii, fi, fields[fi]})
			}
		}
	}
	specs := make([]int, 1, len(fl)+1)
	specs[0] = -1
	if !c.opt.NoSpecialize {
		for k, f := range fl {
			if f.kind != vm.FTgt {
				specs = append(specs, k)
			}
		}
	}
	c.flocCache = append(c.flocCache, fl)
	c.specCache = append(c.specCache, specs)
	c.dictCostCache = append(c.dictCostCache, dictEntryBytes(p))
	return id
}

// findDict returns the id of the installed pattern structurally equal
// to p (hashed as h), or -1.
func (c *compressor) findDict(p Pattern, h uint64) int {
	for _, id := range c.dictIdx[h] {
		if patternEqual(c.dict[id], p) {
			return id
		}
	}
	return -1
}

// buildUnits seeds one unit per instruction with base patterns and
// block-relative targets.
func (c *compressor) buildUnits(p *vm.Program) error {
	if len(p.Code) > maxUnits {
		return fmt.Errorf("brisc: %d instructions exceed the compressor's limit of %d", len(p.Code), maxUnits)
	}
	p2 := *p
	p2.ComputeBlockStarts()
	blockOf := make(map[int32]int32, len(p2.BlockStarts))
	for bi, idx := range p2.BlockStarts {
		blockOf[int32(idx)] = int32(bi)
	}
	sc := c.sc
	c.dict = sc.dict[:0]
	c.flocCache = sc.flocs[:0]
	c.specCache = sc.specs[:0]
	c.dictCostCache = sc.dictCost[:0]
	c.dictIdx = make(map[uint64][]int, 2*vm.NumOpcodes)
	c.addDict(Pattern{}, patternHash(Pattern{})) // opcode 0 placeholder
	for op := 1; op < vm.NumOpcodes; op++ {
		bp := basePattern(vm.Opcode(op))
		c.addDict(bp, patternHash(bp))
	}
	blockSet := make(map[int]bool, len(p2.BlockStarts))
	for _, idx := range p2.BlockStarts {
		blockSet[idx] = true
	}
	// Seeding is a per-instruction map from read-only state (blockOf,
	// blockSet, the base dictionary) to disjoint c.units slots, so it
	// shards cleanly across the pool. Instructions and operand values
	// live in two flat arenas — one slot per unit, offsets precomputed
	// serially — instead of two tiny heap slices per unit; full-cap
	// subslices keep later appends from bleeding into the next unit.
	n := len(p2.Code)
	if cap(sc.units) < n && cap(sc.units2) >= n {
		sc.units, sc.units2 = sc.units2, sc.units
	}
	c.units = growUnits(&sc.units, n)
	instrs := growInstrs(&sc.instrs, n)
	off := growInt32(&sc.valOff, n+1)
	total := 0
	for i := range p2.Code {
		off[i] = int32(total)
		total += len(p2.Code[i].Op.Fields())
	}
	off[n] = int32(total)
	vals := growInt32(&sc.valInit, total)
	spans := parallel.Ranges(n, c.pool.Workers())
	return c.pool.ForEach("brisc.build_units", len(spans), func(si int) error {
		for i := spans[si][0]; i < spans[si][1]; i++ {
			cp := p2.Code[i]
			if !cp.Op.Valid() {
				return fmt.Errorf("brisc: instr %d has illegal opcode %d", i, cp.Op)
			}
			// Rewrite code targets to block indices.
			for fi, f := range cp.Op.Fields() {
				if f == vm.FTgt {
					b, ok := blockOf[getField(cp, fi)]
					if !ok {
						return fmt.Errorf("brisc: target %d of instr %d is not a block start", getField(cp, fi), i)
					}
					setField(&cp, fi, b)
				}
			}
			pat := int(cp.Op)
			instrs[i] = cp
			ui := instrs[i : i+1 : i+1]
			uv := c.dict[pat].appendExtract(vals[off[i]:off[i]:off[i+1]], ui)
			c.units[i] = unit{
				instrs: ui,
				pat:    pat,
				vals:   uv,
				nib:    c.dict[pat].operandNibbles(uv),
				block:  blockSet[i],
			}
		}
		return nil
	})
}

// maxUnits bounds the instructions one compressor run accepts. An
// occurrence of a candidate saves at most 11 bytes, so the int32
// candidate sums stay below 2^31.
const maxUnits = 1 << 27

// dictEntryBytes estimates the serialized dictionary cost of a pattern
// (the paper's "bytes needed to represent the instruction pattern in
// the dictionary").
func dictEntryBytes(p Pattern) int {
	n := 1 // instruction count
	for _, pi := range p.Seq {
		n += 1 + (len(pi.Fixed)+7)/8
		for f, fx := range pi.Fixed {
			if fx {
				n += uvarintLen(zigzag32(pi.Val[f]))
			}
		}
	}
	return n
}

// tableCostW models the decoder's per-entry working-set cost: the
// native handler sequence for the pattern, averaged over the two
// simulated targets (standing in for the paper's Pentium/PowerPC 601
// averages — their example gives W=25 for a one-instruction pattern).
func tableCostW(p Pattern) int {
	return 12 + 11*len(p.Seq)
}

// floc locates one unfixed field within a pattern.
type floc struct {
	ii, fi int
	kind   vm.FieldKind
}

// fieldNibbles is the operand cost of one unfixed field instance.
func fieldNibbles(kind vm.FieldKind, v int32) int {
	if kind == vm.FReg {
		return 1
	}
	return 1 + nibblesForValue(v)
}

// materialize builds the Pattern a candidate key denotes.
func (c *compressor) materialize(k candKey) Pattern {
	pid1, f1, pid2, f2 := k.pid1(), k.f1(), k.pid2(), k.f2()
	p := c.dict[pid1]
	if f1 >= 0 {
		fl := c.flocCache[pid1][f1]
		p = specialize(p, fl.ii, fl.fi, k.v1)
	}
	if pid2 >= 0 {
		q := c.dict[pid2]
		if f2 >= 0 {
			fl := c.flocCache[pid2][f2]
			q = specialize(q, fl.ii, fl.fi, k.v2)
		}
		p = combine(p, q)
	} else if f1 < 0 {
		p = clonePattern(p)
	}
	return p
}

// run executes the greedy multi-pass dictionary construction.
//
// Candidate statistics are built once by fullScan and then maintained
// incrementally: each stat is a sum of independent per-anchor
// contributions, and rewrite retracts/re-adds exactly the anchors whose
// units it changes. The map entering every adopt call is therefore
// identical to what a from-scratch rescan of the current unit array
// would produce, so the greedy choices — and the output bytes — are
// unchanged (pinned by TestArtifactGolden and the determinism suites).
func (c *compressor) run() {
	c.startScan()
	for pass := 0; pass < c.opt.MaxPasses; pass++ {
		if !c.pass() {
			break
		}
	}
	c.cands = nil
}

// startScan sizes the candidate table for this run and fills it with a
// full scan.
func (c *compressor) startScan() {
	c.cands = &c.sc.cands
	c.cands.reset(candsPerUnit * len(c.units))
	ssp := c.rec.StartSpan("brisc.scan", telemetry.Int("units", int64(len(c.units))))
	c.fullScan()
	ssp.SetAttr(telemetry.Int("candidates", int64(c.cands.n)))
	ssp.End()
}

// candsPerUnit sizes a fresh candidate table from the unit count: a
// full scan finds about 4.4 distinct candidates per unit on wep, 3.1 on
// word and 5 to 7 on the small kernels, and later passes hold fewer.
const candsPerUnit = 5

// pass runs one greedy pass, adopting the best candidates and
// rewriting the units with them, and reports whether another pass
// should follow.
func (c *compressor) pass() bool {
	c.passes++
	sp := c.rec.StartSpan("brisc.pass", telemetry.Int("pass", int64(c.passes)))
	defer sp.End()
	nCands := c.cands.n
	asp := c.rec.StartSpan("brisc.adopt", telemetry.Int("candidates", int64(nCands)))
	adopted := c.adopt()
	asp.SetAttr(telemetry.Int("adopted", int64(len(adopted))))
	asp.End()
	c.rec.Add("brisc.pass.candidates", int64(nCands))
	c.rec.Add("brisc.pass.adopted", int64(len(adopted)))
	sp.SetAttr(
		telemetry.Int("candidates", int64(nCands)),
		telemetry.Int("adopted", int64(len(adopted))),
	)
	sp.Event("adopt", telemetry.Int("patterns", int64(len(adopted))))
	if len(adopted) == 0 {
		return false
	}
	rsp := c.rec.StartSpan("brisc.rewrite", telemetry.Int("patterns", int64(len(adopted))))
	c.rewrite(adopted)
	rsp.SetAttr(telemetry.Int("units", int64(len(c.units))))
	rsp.End()
	sp.Event("rewrite", telemetry.Int("units", int64(len(c.units))))
	sp.SetAttr(telemetry.Int("units", int64(len(c.units))))
	// A pass that did not yield K useful patterns is the last.
	return len(adopted) >= c.opt.K
}

// fullScan seeds the candidate table by scanning every anchor once.
//
// The scan shards across the pool: each worker folds its contiguous
// unit span into a private table, and the shard tables are merged
// afterwards. The merge only sums per-key counters — a commutative
// reduction — so the resulting statistics (and hence adoption, which
// sorts by benefit with a total candKey tie-break) are identical to
// the serial scan's.
func (c *compressor) fullScan() {
	spans := parallel.Ranges(len(c.units), c.pool.Workers())
	if len(spans) <= 1 {
		for i := range c.units {
			c.scanUnit(i, 1, c.cands)
		}
		return
	}
	sc := c.sc
	for len(sc.shards) < len(spans) {
		sc.shards = append(sc.shards, candTable{})
	}
	c.pool.ForEach("brisc.scan_shard", len(spans), func(si int) error {
		t := &sc.shards[si]
		t.reset(candsPerUnit * (spans[si][1] - spans[si][0]))
		for i := spans[si][0]; i < spans[si][1]; i++ {
			c.scanUnit(i, 1, t)
		}
		return nil
	})
	msp := c.rec.StartSpan("brisc.merge", telemetry.Int("shards", int64(len(spans))))
	for si := range spans {
		for _, s := range sc.shards[si].slots {
			if s.count != 0 {
				c.cands.add(s.key, s.count, s.savings)
			}
		}
	}
	msp.SetAttr(telemetry.Int("candidates", int64(c.cands.n)))
	msp.End()
}

// scanUnit folds the candidates anchored at unit i into t with the
// given sign: +1 proposes them (the full scan and post-rewrite re-adds)
// and -1 retracts a contribution previously added for the exact same
// unit state. A contribution depends only on units[i], units[i+1], and
// immutable dictionary entries, so retract-mutate-re-add keeps t equal
// to a from-scratch scan of the current array; an entry whose count
// returns to zero leaves the table, preserving that equivalence
// exactly.
//
// Combination pairs (i, i+1) are anchored at i, so a contiguous span
// scan reads one unit past its upper bound but never writes — parallel
// shards overlap only in reads.
func (c *compressor) scanUnit(i int, sign int32, t *candTable) {
	add := func(k candKey, saved int) {
		if saved > 0 {
			t.add(k, sign, sign*int32(saved))
		}
	}
	ceil2 := func(n int) int { return (n + 1) / 2 }

	u := &c.units[i]
	uFlocs := c.flocCache[u.pat]
	uSize := 1 + ceil2(u.nib)

	if !c.opt.NoSpecialize {
		// One-field specializations of the unit's pattern. Code
		// targets are not specialized: burned-in branch
		// destinations almost never repeat.
		for k, fl := range uFlocs {
			if fl.kind == vm.FTgt {
				continue
			}
			newSize := 1 + ceil2(u.nib-fieldNibbles(fl.kind, u.vals[k]))
			add(newCandKey(u.pat, k, u.vals[k], -1, -1, 0), uSize-newSize)
		}
	}
	if c.opt.NoCombine || i+1 >= len(c.units) {
		return
	}
	v := &c.units[i+1]
	if v.block {
		return // never combine across a basic-block boundary
	}
	vFlocs := c.flocCache[v.pat]
	oldSize := uSize + 1 + ceil2(v.nib)
	// Zero-or-one-field specializations of each side, crossed (the
	// paper's augmented operand-specialized sets).
	uChoices := c.specCache[u.pat]
	vChoices := c.specCache[v.pat]
	for _, uc := range uChoices {
		nibU, v1 := u.nib, int32(0)
		if uc >= 0 {
			v1 = u.vals[uc]
			nibU -= fieldNibbles(uFlocs[uc].kind, v1)
		}
		for _, vc := range vChoices {
			nibV, v2 := v.nib, int32(0)
			if vc >= 0 {
				v2 = v.vals[vc]
				nibV -= fieldNibbles(vFlocs[vc].kind, v2)
			}
			newSize := 1 + ceil2(nibU+nibV)
			add(newCandKey(u.pat, uc, v1, v.pat, vc, v2), oldSize-newSize)
		}
	}
}

// adopt selects the K best candidates by benefit and installs them in
// the dictionary, returning their indices. A candidate whose pattern
// would break candKey's packing bounds is skipped like one already in
// the dictionary.
func (c *compressor) adopt() []int {
	floor := c.adoptFloor()
	list := c.sc.scored[:0]
	for i := range c.cands.slots {
		s := &c.cands.slots[i]
		if s.savings <= floor {
			continue // cannot pay; an empty slot's savings is 0
		}
		b := int(s.savings) - c.dictCostOfKey(s.key)
		if !c.opt.AbundantMemory {
			b -= 12 + 11*c.seqLenOfKey(s.key)
		}
		if b > 0 {
			list = append(list, scoredCand{s.key, b})
		}
	}
	slices.SortFunc(list, func(x, y scoredCand) int {
		// Benefit descending, then the total key order, so the
		// table's slot order never shows.
		if x.b != y.b {
			return cmp.Compare(y.b, x.b)
		}
		return candKeyCompare(x.key, y.key)
	})
	c.sc.scored = list
	// Materialize winners only; distinct candidate keys can denote the
	// same pattern or an existing dictionary entry — keep the first.
	ids := c.sc.adopted[:0]
	for _, s := range list {
		if len(ids) >= c.opt.K || len(c.dict) >= maxPatterns {
			break
		}
		p := c.materialize(s.key)
		h := patternHash(p)
		if p.numUnfixed() > maxPatternFields || c.findDict(p, h) >= 0 {
			continue
		}
		ids = append(ids, c.addDict(p, h))
		if c.rec.Enabled() {
			st := c.cands.get(s.key)
			c.rec.Add("brisc.dict.savings_p", int64(st.savings))
			c.rec.Add("brisc.dict.cost_w", int64(tableCostW(p)))
			c.rec.Observe("brisc.adopt.benefit", float64(s.b))
			c.rec.Observe("brisc.adopt.occurrences", float64(st.count))
		}
	}
	c.sc.adopted = ids
	return ids
}

// dictCostOfKey computes the would-be dictionary entry size of a
// candidate without materializing it.
func (c *compressor) dictCostOfKey(k candKey) int {
	cost := c.dictCostCache[k.pid1()]
	if k.f1() >= 0 {
		cost += uvarintLen(zigzag32(k.v1))
	}
	if pid2 := k.pid2(); pid2 >= 0 {
		cost += c.dictCostCache[pid2] - 1
		if k.f2() >= 0 {
			cost += uvarintLen(zigzag32(k.v2))
		}
	}
	return cost
}

func (c *compressor) seqLenOfKey(k candKey) int {
	n := len(c.dict[k.pid1()].Seq)
	if pid2 := k.pid2(); pid2 >= 0 {
		n += len(c.dict[pid2].Seq)
	}
	return n
}

// adoptFloor returns the savings at or below which no candidate has
// B > 0: a lower bound on dictCostOfKey plus W over every key. A
// pattern's side of a key, its dictionary bytes less the shared count
// byte plus W's 11 per instruction, is at least that of the base
// pattern of any of its instructions, so the base opcodes bound it. A
// specialization adds its value's byte to one specializable side; a
// pair has two sides, the left one ending in no block ender.
func (c *compressor) adoptFloor() int32 {
	w0, w1 := 12, 11
	if c.opt.AbundantMemory {
		w0, w1 = 0, 0
	}
	side, left, spec := math.MaxInt32, math.MaxInt32, math.MaxInt32
	for pid := 1; pid < vm.NumOpcodes; pid++ {
		s := c.dictCostCache[pid] - 1 + w1
		side = min(side, s)
		if !vm.Opcode(pid).EndsBlock() {
			left = min(left, s)
		}
		if len(c.specCache[pid]) > 1 {
			spec = min(spec, s)
		}
	}
	return int32(1 + w0 + min(spec+1, left+side))
}

// rewrite applies newly adopted patterns: combinations first (merging
// adjacent units), then the cheapest matching pattern per unit. Both
// stages compute their changes read-only in parallel and commit them
// serially; when candidate statistics are live the commit is bracketed
// by retracting every disturbed anchor and re-scanning it afterwards.
func (c *compressor) rewrite(newIDs []int) {
	track := c.cands != nil
	combinators := c.sc.combs[:0]
	for _, id := range newIDs {
		if len(c.dict[id].Seq) >= 2 {
			combinators = append(combinators, id)
		}
	}
	c.sc.combs = combinators
	if len(combinators) > 0 {
		c.combineUnits(combinators, track)
	}
	// Every new pattern competes to re-cover matching units.
	c.repattern(newIDs, track)
}

// combineUnits merges adjacent units covered by newly adopted
// multi-instruction patterns.
//
// The greedy left-to-right merge never crosses a basic-block boundary
// (units[i+1].block stops it), so the scan decomposes into independent
// per-block-run scans. Chunk the unit array at block starts, scan
// chunks concurrently into per-chunk buffers, and concatenate in chunk
// order — provably identical to the serial pass.
func (c *compressor) combineUnits(combinators []int, track bool) {
	sc := c.sc
	chunks := c.blockChunks()
	for len(sc.chunkUnits) < len(chunks) {
		sc.chunkUnits = append(sc.chunkUnits, nil)
		sc.chunkMerges = append(sc.chunkMerges, nil)
		sc.catArenas = append(sc.catArenas, instrArena{})
		sc.mergeVals = append(sc.mergeVals, int32Arena{})
	}
	c.pool.ForEach("brisc.combine", len(chunks), func(ci int) error {
		lo, hi := chunks[ci][0], chunks[ci][1]
		out := sc.chunkUnits[ci][:0]
		merges := sc.chunkMerges[ci][:0]
		cats := &sc.catArenas[ci]
		mvals := &sc.mergeVals[ci]
		i := lo
		for i < hi {
			u := &c.units[i]
			if i+1 < hi && !c.units[i+1].block {
				v := &c.units[i+1]
				oldSize := c.dict[u.pat].encodedSize(u.vals) + c.dict[v.pat].encodedSize(v.vals)
				best, bestSize := -1, oldSize
				for _, id := range combinators {
					p := &c.dict[id]
					if !p.matchesPair(u.instrs, v.instrs) {
						continue
					}
					if sz := p.encodedSizePair(u.instrs, v.instrs); sz < bestSize {
						best, bestSize = id, sz
					}
				}
				if best >= 0 {
					cat := cats.alloc(len(u.instrs) + len(v.instrs))
					cat = append(append(cat, u.instrs...), v.instrs...)
					bp := &c.dict[best]
					uv := bp.appendExtract(mvals.alloc(len(c.flocCache[best])), cat)
					merges = append(merges, mergeRec{int32(i), int32(len(out))})
					out = append(out, unit{
						instrs: cat,
						pat:    best,
						vals:   uv,
						nib:    bp.operandNibbles(uv),
						block:  u.block,
					})
					i += 2
					continue
				}
			}
			out = append(out, *u)
			i++
		}
		sc.chunkUnits[ci] = out
		sc.chunkMerges[ci] = merges
		return nil
	})
	nm := 0
	for ci := range chunks {
		nm += len(sc.chunkMerges[ci])
	}
	if nm == 0 {
		return // no merges: the unit array is unchanged
	}
	// The serial tail — retract disturbed anchors, concatenate the chunk
	// outputs, re-add against the committed array — is its own span so
	// the trace separates fan-out time from commit time.
	csp := c.rec.StartSpan("brisc.commit", telemetry.Int("merges", int64(nm)))
	defer csp.End()
	if track {
		// Retract, against the pre-merge array, every anchor whose
		// (unit, successor) view a merge invalidates: the merged pair's
		// own two anchors plus the left neighbor whose pair reads into
		// it. Adjacent merges share anchors, hence the dedupe.
		dirty := sc.dirty[:0]
		for ci := range chunks {
			for _, m := range sc.chunkMerges[ci] {
				i := int(m.oldIdx)
				dirty = appendAnchor(dirty, i-1, len(c.units))
				dirty = appendAnchor(dirty, i, len(c.units))
				dirty = appendAnchor(dirty, i+1, len(c.units))
			}
		}
		dirty = dedupeSorted(dirty)
		for _, j := range dirty {
			c.scanUnit(j, -1, c.cands)
		}
		sc.dirty = dirty
	}
	// Commit: concatenate the chunk outputs into the spare unit buffer.
	// c.units always aliases sc.units (never sc.units2), so the append
	// target is disjoint from the source.
	old := c.units
	newUnits := sc.units2[:0]
	for ci := range chunks {
		newUnits = append(newUnits, sc.chunkUnits[ci]...)
	}
	c.units = newUnits
	sc.units, sc.units2 = newUnits, old
	if track {
		// Re-add the merged units' anchors (and their left neighbors)
		// against the committed array.
		dirty := sc.dirty[:0]
		base := 0
		for ci := range chunks {
			for _, m := range sc.chunkMerges[ci] {
				g := base + int(m.outIdx)
				dirty = appendAnchor(dirty, g-1, len(c.units))
				dirty = appendAnchor(dirty, g, len(c.units))
			}
			base += len(sc.chunkUnits[ci])
		}
		dirty = dedupeSorted(dirty)
		for _, j := range dirty {
			c.scanUnit(j, 1, c.cands)
		}
		sc.dirty = dirty
	}
}

// repattern re-covers units with cheaper new patterns: a pure per-unit
// decision against the read-only dictionary, sharded across the pool
// into per-span change lists and applied serially.
func (c *compressor) repattern(specializers []int, track bool) {
	sc := c.sc
	spans := parallel.Ranges(len(c.units), c.pool.Workers())
	for len(sc.changeShards) < len(spans) {
		sc.changeShards = append(sc.changeShards, nil)
	}
	c.pool.ForEach("brisc.repattern", len(spans), func(si int) error {
		out := sc.changeShards[si][:0]
		for i := spans[si][0]; i < spans[si][1]; i++ {
			u := &c.units[i]
			curSize := c.dict[u.pat].encodedSize(u.vals)
			best := -1
			for _, id := range specializers {
				p := &c.dict[id]
				if len(p.Seq) != len(u.instrs) || !p.matches(u.instrs) {
					continue
				}
				if sz := p.encodedSizeInstrs(u.instrs); sz < curSize {
					best, curSize = id, sz
				}
			}
			if best >= 0 {
				out = append(out, repatChange{i, best})
			}
		}
		sc.changeShards[si] = out
		return nil
	})
	total := 0
	for si := range spans {
		total += len(sc.changeShards[si])
	}
	if total == 0 {
		return
	}
	// The serial application — retract, rewrite the changed slots,
	// re-add — is its own span, separating it from the sharded scan.
	asp := c.rec.StartSpan("brisc.apply", telemetry.Int("changes", int64(total)))
	defer asp.End()
	if track {
		// A change at idx rewrites only slot idx, so the disturbed
		// anchors are idx itself and its left neighbor's pair view.
		dirty := sc.dirty[:0]
		for si := range spans {
			for _, ch := range sc.changeShards[si] {
				dirty = appendAnchor(dirty, ch.idx-1, len(c.units))
				dirty = appendAnchor(dirty, ch.idx, len(c.units))
			}
		}
		dirty = dedupeSorted(dirty)
		for _, j := range dirty {
			c.scanUnit(j, -1, c.cands)
		}
		sc.dirty = dirty
	}
	for si := range spans {
		for _, ch := range sc.changeShards[si] {
			u := &c.units[ch.idx]
			p := &c.dict[ch.pat]
			uv := p.appendExtract(sc.vals.alloc(len(c.flocCache[ch.pat])), u.instrs)
			u.pat = ch.pat
			u.vals = uv
			u.nib = p.operandNibbles(uv)
		}
	}
	if track {
		for _, j := range sc.dirty {
			c.scanUnit(j, 1, c.cands)
		}
	}
}

// appendAnchor appends anchor index j when it is a valid unit index.
func appendAnchor(dst []int, j, n int) []int {
	if j >= 0 && j < n {
		return append(dst, j)
	}
	return dst
}

// dedupeSorted sorts xs ascending and drops duplicates in place, so
// each disturbed anchor is retracted and re-added exactly once.
func dedupeSorted(xs []int) []int {
	slices.Sort(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// blockChunks partitions the unit array into contiguous [lo, hi) spans
// that all begin at basic-block starts, one group of whole block runs
// per worker. Merging never crosses a block boundary, so each chunk
// rewrites independently.
func (c *compressor) blockChunks() [][2]int {
	if len(c.units) == 0 {
		return nil
	}
	starts := append(c.sc.starts[:0], 0)
	for i := 1; i < len(c.units); i++ {
		if c.units[i].block {
			starts = append(starts, i)
		}
	}
	c.sc.starts = starts
	groups := parallel.Ranges(len(starts), c.pool.Workers())
	chunks := make([][2]int, len(groups))
	for gi, g := range groups {
		lo := starts[g[0]]
		hi := len(c.units)
		if g[1] < len(starts) {
			hi = starts[g[1]]
		}
		chunks[gi] = [2]int{lo, hi}
	}
	return chunks
}

// peepholeEPI rewrites each three-instruction epilogue
// (ld.iw ra,total-4(sp); exit sp,sp,total; rjr ra) into the paper's epi
// macro-instruction, remapping all code targets.
func peepholeEPI(p *vm.Program) *vm.Program {
	isTarget := make(map[int32]bool)
	for _, ins := range p.Code {
		for fi, f := range ins.Op.Fields() {
			if f == vm.FTgt {
				isTarget[getField(ins, fi)] = true
			}
		}
	}
	newIdx := make([]int32, len(p.Code)+1)
	var out []vm.Instr
	i := 0
	for i < len(p.Code) {
		newIdx[i] = int32(len(out))
		if i+2 < len(p.Code) &&
			!isTarget[int32(i+1)] && !isTarget[int32(i+2)] {
			a, b, r := p.Code[i], p.Code[i+1], p.Code[i+2]
			if a.Op == vm.LDW && a.Rd == vm.RegRA && a.Rs1 == vm.RegSP &&
				b.Op == vm.EXIT && a.Imm == b.Imm-4 &&
				r.Op == vm.RJR && r.Rs1 == vm.RegRA {
				newIdx[i+1] = int32(len(out))
				newIdx[i+2] = int32(len(out))
				out = append(out, vm.Instr{Op: vm.EPI, Imm: b.Imm})
				i += 3
				continue
			}
		}
		out = append(out, p.Code[i])
		i++
	}
	newIdx[len(p.Code)] = int32(len(out))

	// Remap targets and function boundaries.
	for j := range out {
		ins := &out[j]
		for fi, f := range ins.Op.Fields() {
			if f == vm.FTgt {
				setField(ins, fi, newIdx[getField(*ins, fi)])
			}
		}
	}
	np := &vm.Program{
		Name:     p.Name,
		Code:     out,
		Globals:  p.Globals,
		DataSize: p.DataSize,
	}
	for _, f := range p.Funcs {
		np.Funcs = append(np.Funcs, vm.FuncInfo{
			Name:  f.Name,
			Entry: int(newIdx[f.Entry]),
			End:   int(newIdx[f.End]),
			Frame: f.Frame,
		})
	}
	np.ComputeBlockStarts()
	return np
}

// finish performs the final Markov encoding and assembles the object.
func (c *compressor) finish(p *vm.Program) (*Object, error) {
	sp := c.rec.StartSpan("brisc.finish", telemetry.Int("units", int64(len(c.units))))
	defer func() {
		sp.SetAttr(telemetry.Int("dict_entries", int64(len(c.dict))))
		sp.End()
	}()
	// Garbage-collect learned patterns that no unit uses; base patterns
	// (ids < NumOpcodes) are implicit and free.
	used := make([]bool, len(c.dict))
	for i := range c.units {
		used[c.units[i].pat] = true
	}
	remap := make([]int, len(c.dict))
	dict := make([]Pattern, 0, len(c.dict))
	for id := 0; id < vm.NumOpcodes; id++ {
		remap[id] = id
	}
	dict = append(dict, c.dict[:vm.NumOpcodes]...)
	for id := vm.NumOpcodes; id < len(c.dict); id++ {
		if used[id] {
			remap[id] = len(dict)
			dict = append(dict, c.dict[id])
		}
	}
	for i := range c.units {
		c.units[i].pat = remap[c.units[i].pat]
	}

	obj := &Object{
		Name:     p.Name,
		Dict:     dict,
		Globals:  p.Globals,
		DataSize: p.DataSize,
		Passes:   c.passes,
	}

	// Follower statistics per context (0 = block start, i+1 = pattern i).
	nCtx := len(dict) + 1
	follows := make([]map[int]int, nCtx)
	for i := range follows {
		follows[i] = map[int]int{}
	}
	ctx := 0
	for i := range c.units {
		u := &c.units[i]
		if u.block {
			ctx = 0
		}
		follows[ctx][u.pat]++
		ctx = u.pat + 1
	}
	obj.Contexts = make([][]int, nCtx)
	for ci, m := range follows {
		type pf struct {
			pid, n int
		}
		var list []pf
		for pid, n := range m {
			list = append(list, pf{pid, n})
		}
		slices.SortFunc(list, func(a, b pf) int {
			return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.pid, b.pid))
		})
		if len(list) > 255 {
			list = list[:255] // overflow encodes via escape byte
		}
		tbl := make([]int, len(list))
		for i, e := range list {
			tbl[i] = e.pid
		}
		obj.Contexts[ci] = tbl
	}

	// Encode the unit stream; record block byte offsets in order.
	code := make([]byte, 0, 2*len(c.units))
	nw := nibPool.Get()
	defer nibPool.Put(nw)
	ctx = 0
	for i := range c.units {
		u := &c.units[i]
		if u.block {
			ctx = 0
			obj.Blocks = append(obj.Blocks, int32(len(code)))
		}
		// Opcode byte: index in context table, or escape.
		idx := indexOf(obj.Contexts[ctx], u.pat)
		if idx >= 0 && idx < 255 {
			code = append(code, byte(idx))
		} else {
			code = append(code, 255)
			code = appendUvarint(code, uint64(u.pat))
		}
		// Operand nibbles.
		nw.reset()
		p := dict[u.pat]
		vi := 0
		for _, pi := range p.Seq {
			fields := pi.Op.Fields()
			for f, fx := range pi.Fixed {
				if fx {
					continue
				}
				v := u.vals[vi]
				vi++
				if fields[f] == vm.FReg {
					if v < 0 || v > 15 {
						return nil, fmt.Errorf("brisc: register value %d out of range", v)
					}
					nw.put(uint8(v))
				} else {
					n := nibblesForValue(v)
					nw.put(uint8(n))
					for k := n - 1; k >= 0; k-- {
						nw.put(uint8(v >> (4 * k) & 0xF))
					}
				}
			}
		}
		code = nw.appendTo(code)
		ctx = u.pat + 1
	}
	obj.Code = code

	// Function table: entry instruction -> block index.
	instrBlock := map[int]int{}
	for bi, idx := range p.BlockStarts {
		instrBlock[idx] = bi
	}
	for _, f := range p.Funcs {
		bi, ok := instrBlock[f.Entry]
		if !ok {
			return nil, fmt.Errorf("brisc: function %s entry %d is not a block start", f.Name, f.Entry)
		}
		obj.Funcs = append(obj.Funcs, ObjFunc{Name: f.Name, EntryBlock: int32(bi), Frame: int32(f.Frame)})
	}
	sp.SetAttr(
		telemetry.Int("units", int64(len(c.units))),
		telemetry.Int("dict", int64(len(dict))),
		telemetry.Int("code_bytes", int64(len(code))),
	)
	return obj, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// nibbleWriter packs nibbles high-first into bytes.
type nibbleWriter struct {
	buf  []byte
	half bool
}

// nibPool recycles nibbleWriters (and their grown buffers) across
// finish calls, including concurrent Compress calls in batch mode.
var nibPool = parallel.NewScratch(
	func() *nibbleWriter { return new(nibbleWriter) },
	func(w *nibbleWriter) { w.reset() },
)

func (w *nibbleWriter) reset() { w.buf = w.buf[:0]; w.half = false }

func (w *nibbleWriter) put(n uint8) {
	if w.half {
		w.buf[len(w.buf)-1] |= n & 0xF
		w.half = false
	} else {
		w.buf = append(w.buf, n<<4)
		w.half = true
	}
}

func (w *nibbleWriter) appendTo(dst []byte) []byte { return append(dst, w.buf...) }

func zigzag32(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }

func unzigzag32(u uint64) int32 { return int32(uint32(u)>>1) ^ -int32(u&1) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
