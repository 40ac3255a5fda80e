package brisc

import "cmp"

// candKey identifies a candidate without materializing its pattern:
// a source pattern plus an optional one-field specialization for each
// half (f == -1 means no specialization; pid2 == -1 means the candidate
// is a pure specialization of pid1). Each half packs its pattern id and
// field index into one int32, pid<<8 | (f+1), so the key is 16 bytes
// and a slot with its stats 24. adopt admits only patterns that keep
// every id below maxPatterns and every field index below maxPatternFields.
type candKey struct {
	pf1, v1 int32
	pf2, v2 int32
}

const (
	maxPatterns      = 1 << 23 // pid fits the packed field's high 23 bits
	maxPatternFields = 255     // f+1 fits its low 8 bits
)

func newCandKey(pid1, f1 int, v1 int32, pid2, f2 int, v2 int32) candKey {
	return candKey{int32(pid1<<8 | (f1 + 1)), v1, int32(pid2<<8 | (f2 + 1)), v2}
}

func (k candKey) pid1() int { return int(k.pf1 >> 8) }
func (k candKey) f1() int   { return int(k.pf1&0xff) - 1 }
func (k candKey) pid2() int { return int(k.pf2 >> 8) }
func (k candKey) f2() int   { return int(k.pf2&0xff) - 1 }

// candKeyCompare orders keys field by field with signed compares; it is
// adoption's total tie-break. A packed half compares as its pid and
// then its f, so the order is (pid1, f1, v1, pid2, f2, v2).
func candKeyCompare(a, b candKey) int {
	return cmp.Or(
		cmp.Compare(a.pf1, b.pf1),
		cmp.Compare(a.v1, b.v1),
		cmp.Compare(a.pf2, b.pf2),
		cmp.Compare(a.v2, b.v2),
	)
}

// hash is a multiply-xorshift mix of the key's two 64-bit halves.
func (k candKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(uint32(k.pf1))<<32 | uint64(uint32(k.v1))) * m
	h = (h ^ h>>29 ^ (uint64(uint32(k.pf2))<<32 | uint64(uint32(k.v2)))) * m
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
