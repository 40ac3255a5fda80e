package brisc

import "cmp"

// candKey identifies a candidate without materializing its pattern:
// a source pattern plus an optional one-field specialization for each
// half (f == -1 means no specialization; pid2 == -1 means the candidate
// is a pure specialization of pid1). Six int32 fields keep it at 24
// bytes, so a table slot with its stats fills half a cache line.
type candKey struct {
	pid1, f1, v1 int32
	pid2, f2, v2 int32
}

// candKeyCompare orders keys field by field with signed compares; it is
// adoption's total tie-break.
func candKeyCompare(a, b candKey) int {
	return cmp.Or(
		cmp.Compare(a.pid1, b.pid1),
		cmp.Compare(a.f1, b.f1),
		cmp.Compare(a.v1, b.v1),
		cmp.Compare(a.pid2, b.pid2),
		cmp.Compare(a.f2, b.f2),
		cmp.Compare(a.v2, b.v2),
	)
}

// hash is a multiply-xorshift mix of the six fields.
func (k candKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(uint32(k.pid1))<<32 | uint64(uint32(k.f1))) * m
	h = (h ^ h>>29 ^ (uint64(uint32(k.v1))<<32 | uint64(uint32(k.pid2)))) * m
	h = (h ^ h>>29 ^ (uint64(uint32(k.f2))<<32 | uint64(uint32(k.v2)))) * m
	return h ^ h>>32
}

// candStat accumulates one candidate's occurrences and program-byte
// reduction. Each occurrence saves at most a dozen bytes and buildUnits
// caps a program at maxUnits instructions, so int32 sums cannot
// overflow.
type candStat struct {
	count   int32
	savings int32
}

type candSlot struct {
	key candKey
	candStat
}

// candTable maps candKey to candStat by linear probing over a
// power-of-two slot array. A slot is empty exactly when its count is 0:
// every stat is a sum of contributions with positive savings, so a
// count that returns to 0 means the candidate no longer occurs, and the
// slot is freed by backward shift (no tombstones), so long runs of
// retracts and re-adds never lengthen probe chains.
//
// Callers iterate by walking slots and skipping empty ones; the slot
// order depends on insertion history, so nothing may depend on it.
type candTable struct {
	slots []candSlot
	n     int // occupied slots: the number of candidates
}

const minCandSlots = 64

// reset empties t and sizes it for about n entries. A held array more
// than four times that size is dropped, so the clear costs in
// proportion to this run, not to the largest run the table has served.
func (t *candTable) reset(n int) {
	want := minCandSlots
	for want*3 < n*4 {
		want *= 2
	}
	if len(t.slots) < want || len(t.slots) > 4*want {
		t.slots = make([]candSlot, want)
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// add adds (dc, ds) to k's stat in one probe, inserting k when absent
// and freeing its slot when the count returns to 0. Retracting an
// absent key means the incremental bookkeeping has diverged from the
// units, so it panics.
func (t *candTable) add(k candKey, dc, ds int32) {
	mask := len(t.slots) - 1
	i := int(k.hash()) & mask
	for {
		s := &t.slots[i]
		if s.count == 0 {
			if dc <= 0 {
				panic("brisc: retracted a candidate the table does not hold")
			}
			*s = candSlot{k, candStat{dc, ds}}
			t.n++
			if 4*t.n > 3*len(t.slots) {
				t.grow()
			}
			return
		}
		if s.key == k {
			s.count += dc
			s.savings += ds
			if s.count == 0 {
				t.deleteAt(i)
			}
			return
		}
		i = (i + 1) & mask
	}
}

// get returns k's stat, or the zero stat when k is absent.
func (t *candTable) get(k candKey) candStat {
	mask := len(t.slots) - 1
	for i := int(k.hash()) & mask; t.slots[i].count != 0; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return t.slots[i].candStat
		}
	}
	return candStat{}
}

// deleteAt empties slot i, shifting later members of its probe chain
// back so every key stays reachable from its home slot.
func (t *candTable) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].count != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		home := int(t.slots[j].key.hash()) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = candSlot{}
	t.n--
}

// grow doubles the slot array and reinserts every entry.
func (t *candTable) grow() {
	old := t.slots
	t.slots = make([]candSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.count == 0 {
			continue
		}
		i := int(s.key.hash()) & mask
		for t.slots[i].count != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
