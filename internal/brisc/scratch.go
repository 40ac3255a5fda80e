package brisc

import (
	"repro/internal/parallel"
	"repro/internal/vm"
)

// The compressor's allocation profile used to be dominated by per-pass
// churn: a fresh candidate map every greedy pass, per-candidate stat
// pointers, per-unit value slices, and per-chunk rewrite buffers. All
// of that state is now bump-allocated from a compressScratch arena that
// is recycled across Compress calls (including concurrent batch-mode
// calls sharing one parallel.Pool) through a parallel.Scratch. Nothing
// reachable from a returned *Object may alias arena memory — finish
// builds the object from fresh allocations — so a scratch is safe to
// reuse the moment its run returns.

// scoredCand is one candidate with its computed benefit, collected by
// adopt for the per-pass top-K sort.
type scoredCand struct {
	key candKey
	b   int
}

// mergeRec records one opcode-combination merge: the anchor index in
// the pre-merge unit array and the merged unit's index within its
// chunk's output.
type mergeRec struct {
	oldIdx, outIdx int32
}

// repatChange is one pending unit re-patterning, computed read-only in
// the parallel repattern scan and applied serially so candidate stats
// can be retracted before the unit mutates.
type repatChange struct {
	idx int
	pat int
}

// int32Arena bump-allocates small int32 slices from chunked backing.
// Slices stay valid until the owning scratch is recycled; reset keeps
// only the current chunk, so steady-state reuse stops allocating.
type int32Arena struct {
	cur []int32
	pos int
}

const int32ArenaChunk = 1 << 14

func (a *int32Arena) alloc(n int) []int32 {
	if a.pos+n > len(a.cur) {
		sz := int32ArenaChunk
		if n > sz {
			sz = n
		}
		a.cur = make([]int32, sz)
		a.pos = 0
	}
	s := a.cur[a.pos : a.pos : a.pos+n]
	a.pos += n
	return s
}

func (a *int32Arena) reset() { a.pos = 0 }

// instrArena is int32Arena's vm.Instr counterpart, backing the merged
// units' concatenated instruction sequences.
type instrArena struct {
	cur []vm.Instr
	pos int
}

const instrArenaChunk = 1 << 12

func (a *instrArena) alloc(n int) []vm.Instr {
	if a.pos+n > len(a.cur) {
		sz := instrArenaChunk
		if n > sz {
			sz = n
		}
		a.cur = make([]vm.Instr, sz)
		a.pos = 0
	}
	s := a.cur[a.pos : a.pos : a.pos+n]
	a.pos += n
	return s
}

func (a *instrArena) reset() { a.pos = 0 }

// compressScratch holds every reusable buffer of one compressor run.
type compressScratch struct {
	units  []unit
	units2 []unit

	// buildUnits arenas: one vm.Instr slot and one operand-value span
	// per seeded unit.
	instrs  []vm.Instr
	valInit []int32
	valOff  []int32

	// Incremental candidate statistics: the persistent table plus one
	// table per shard of the initial parallel full scan. Each run resets
	// them to its own size.
	cands  candTable
	shards []candTable

	// Per-pass working sets.
	scored  []scoredCand
	combs   []int
	dirty   []int
	vals    int32Arena // repattern operand values
	chunks  [][2]int
	starts  []int
	adopted []int

	// Per-chunk / per-span rewrite buffers (≤ pool workers of each).
	// Arenas are indexed by chunk, and chunks are disjoint, so workers
	// never contend no matter which goroutine runs which task.
	chunkUnits   [][]unit
	chunkMerges  [][]mergeRec
	catArenas    []instrArena // merged units' instruction sequences
	mergeVals    []int32Arena // merged units' operand values
	changeShards [][]repatChange

	// Compressor-level caches reused as empty slices.
	dict     []Pattern
	flocs    [][]floc
	specs    [][]int
	dictCost []int
}

// compressPool recycles scratch arenas across Compress calls. The
// reset hook drops per-run entries but keeps grown capacity, so batch
// workloads reach a steady state with near-zero scratch allocation.
var compressPool = parallel.NewScratch(
	func() *compressScratch { return new(compressScratch) },
	func(sc *compressScratch) {
		sc.vals.reset()
		for i := range sc.catArenas {
			sc.catArenas[i].reset()
		}
		for i := range sc.mergeVals {
			sc.mergeVals[i].reset()
		}
		// Slices of pointers/slices must be zeroed where they retain
		// heap references (units hold instr/value slices into arenas
		// that are about to be recycled); plain value slices just get
		// length 0 at next use.
		for i := range sc.dict {
			sc.dict[i] = Pattern{}
		}
		sc.dict = sc.dict[:0]
		for i := range sc.flocs {
			sc.flocs[i] = nil
		}
		sc.flocs = sc.flocs[:0]
		for i := range sc.specs {
			sc.specs[i] = nil
		}
		sc.specs = sc.specs[:0]
		for i := range sc.units {
			sc.units[i] = unit{}
		}
		for i := range sc.units2 {
			sc.units2[i] = unit{}
		}
		for i := range sc.chunkUnits {
			for j := range sc.chunkUnits[i] {
				sc.chunkUnits[i][j] = unit{}
			}
			sc.chunkUnits[i] = sc.chunkUnits[i][:0]
		}
	},
)

// growUnits returns *s resized to length n, reallocating only when
// capacity is short.
func growUnits(s *[]unit, n int) []unit {
	if cap(*s) < n {
		*s = make([]unit, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInstrs(s *[]vm.Instr, n int) []vm.Instr {
	if cap(*s) < n {
		*s = make([]vm.Instr, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInt32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}
