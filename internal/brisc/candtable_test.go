package brisc

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/vm"
	"repro/internal/workload"
)

// contrib is one per-anchor contribution: the unit of propose/retract.
type contrib struct {
	key   candKey
	saved int32
}

// tableOracle drives a candTable and a map reference through the same
// proposes and retracts and checks them equal after every step.
type tableOracle struct {
	t    *testing.T
	tab  candTable
	ref  map[candKey]candStat
	live []contrib // contributions proposed and not yet retracted
}

func newTableOracle(t *testing.T, hint int) *tableOracle {
	o := &tableOracle{t: t, ref: map[candKey]candStat{}}
	o.tab.reset(hint)
	return o
}

func (o *tableOracle) propose(c contrib) {
	o.tab.add(c.key, 1, c.saved)
	st := o.ref[c.key]
	st.count++
	st.savings += c.saved
	o.ref[c.key] = st
	o.live = append(o.live, c)
	o.check()
}

// retract withdraws live contribution i.
func (o *tableOracle) retract(i int) {
	c := o.live[i]
	o.live[i] = o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
	o.tab.add(c.key, -1, -c.saved)
	st := o.ref[c.key]
	st.count--
	st.savings -= c.saved
	if st.count == 0 {
		delete(o.ref, c.key)
	} else {
		o.ref[c.key] = st
	}
	o.check()
}

func (o *tableOracle) retractAll(rng *rand.Rand) {
	for len(o.live) > 0 {
		o.retract(rng.Intn(len(o.live)))
	}
}

// check compares length, every reference entry, and every occupied
// slot, so a stale or duplicated slot fails as well as a lost one.
func (o *tableOracle) check() {
	o.t.Helper()
	if o.tab.n != len(o.ref) {
		o.t.Fatalf("len %d, reference %d", o.tab.n, len(o.ref))
	}
	for k, want := range o.ref {
		if got := o.tab.get(k); got != want {
			o.t.Fatalf("key %+v: got %+v, want %+v", k, got, want)
		}
	}
	occupied := 0
	for _, s := range o.tab.slots {
		if s.count == 0 {
			if s != (candSlot{}) {
				o.t.Fatalf("empty slot holds %+v", s)
			}
			continue
		}
		occupied++
		if want, ok := o.ref[s.key]; !ok || want != s.candStat {
			o.t.Fatalf("slot %+v, reference %+v (present %v)", s, want, ok)
		}
	}
	if occupied != len(o.ref) {
		o.t.Fatalf("%d occupied slots, reference %d", occupied, len(o.ref))
	}
}

// keysWithHome returns n distinct keys whose home slot in a table of
// size slots is home.
func keysWithHome(n, slots, home int) []candKey {
	var ks []candKey
	for v := int32(0); len(ks) < n; v++ {
		k := newCandKey(7, 1, v, -1, -1, 0)
		if int(k.hash())&(slots-1) == home {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestCandTableMatchesMap checks the open-addressing table against a
// map through seeded proposes and retracts: random traffic over a small
// key space, one home slot shared by many keys, probe chains that wrap
// past the last slot, and growth under load.
func TestCandTableMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			o := newTableOracle(t, 0)
			for step := 0; step < 2000; step++ {
				if len(o.live) > 0 && rng.Intn(5) < 2 {
					o.retract(rng.Intn(len(o.live)))
					continue
				}
				k := newCandKey(rng.Intn(6), rng.Intn(3)-1, int32(rng.Intn(9))-4,
					rng.Intn(3)-1, rng.Intn(2)-1, int32(rng.Intn(3)))
				o.propose(contrib{k, int32(1 + rng.Intn(11))})
			}
			o.retractAll(rng)
		}
	})
	t.Run("shared-home", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		o := newTableOracle(t, 0)
		if len(o.tab.slots) != minCandSlots {
			t.Fatalf("reset(0) gave %d slots, want %d", len(o.tab.slots), minCandSlots)
		}
		ks := keysWithHome(40, minCandSlots, 9)
		for round := 0; round < 3; round++ {
			for _, k := range ks {
				o.propose(contrib{k, int32(1 + rng.Intn(5))})
			}
			if len(o.tab.slots) != minCandSlots {
				t.Fatalf("40 keys grew the %d-slot table", minCandSlots)
			}
			// Retract about half, so later proposes refill holes left by
			// backward shifts mid-chain.
			for i := 0; i < 20; i++ {
				o.retract(rng.Intn(len(o.live)))
			}
		}
		o.retractAll(rng)
	})
	t.Run("wrap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		o := newTableOracle(t, 0)
		var ks []candKey
		for _, home := range []int{61, 62, 63, 0, 1} {
			ks = append(ks, keysWithHome(4, minCandSlots, home)...)
		}
		for round := 0; round < 20; round++ {
			rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
			for _, k := range ks {
				o.propose(contrib{k, 3})
			}
			o.retractAll(rng)
		}
	})
	t.Run("grow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		o := newTableOracle(t, 0)
		for i := 0; i < 600; i++ {
			k := newCandKey(i%37, -1, int32(i), i%5, -1, 0)
			o.propose(contrib{k, int32(1 + rng.Intn(11))})
			if 4*o.tab.n > 3*len(o.tab.slots) {
				t.Fatalf("%d entries in %d slots: over 3/4 load", o.tab.n, len(o.tab.slots))
			}
		}
		if len(o.tab.slots) < 1024 {
			t.Fatalf("600 entries in %d slots", len(o.tab.slots))
		}
		o.retractAll(rng)
	})
	t.Run("retract-absent-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("retracting an absent key did not panic")
			}
		}()
		var tab candTable
		tab.reset(0)
		tab.add(newCandKey(1, -1, 0, -1, -1, 0), -1, -3)
	})
}

// TestCandKeyOrder checks the packed key against the six-field key it
// replaced: seeded random in-bound keys, the -1 sentinels and negative
// values included, compare exactly as (pid1, f1, v1, pid2, f2, v2)
// compared field by field, and the accessors return pid and f. A slot
// stays 24 bytes.
func TestCandKeyOrder(t *testing.T) {
	if sz := unsafe.Sizeof(candSlot{}); sz != 24 {
		t.Fatalf("candSlot is %d bytes, want 24", sz)
	}
	type wide struct {
		pid1, f1 int
		v1       int32
		pid2, f2 int
		v2       int32
	}
	rng := rand.New(rand.NewSource(11))
	// Draw from a few values at each edge of the bounds as often as
	// from the whole range, so equal prefixes are common.
	pid := func() int {
		if rng.Intn(2) == 0 {
			return []int{-1, 0, 1, maxPatterns - 2, maxPatterns - 1}[rng.Intn(5)]
		}
		return rng.Intn(maxPatterns)
	}
	f := func() int {
		if rng.Intn(2) == 0 {
			return []int{-1, 0, 1, maxPatternFields - 2, maxPatternFields - 1}[rng.Intn(5)]
		}
		return rng.Intn(maxPatternFields+1) - 1
	}
	v := func() int32 {
		if rng.Intn(2) == 0 {
			return []int32{-1 << 31, -1, 0, 1, 1<<31 - 1}[rng.Intn(5)]
		}
		return int32(rng.Uint32())
	}
	draw := func() wide { return wide{pid(), f(), v(), pid(), f(), v()} }
	pack := func(w wide) candKey { return newCandKey(w.pid1, w.f1, w.v1, w.pid2, w.f2, w.v2) }
	for i := 0; i < 200000; i++ {
		a, b := draw(), draw()
		if rng.Intn(2) == 0 {
			b = a // then perturb one field, so every field decides some pairs
			switch nb := draw(); rng.Intn(6) {
			case 0:
				b.pid1 = nb.pid1
			case 1:
				b.f1 = nb.f1
			case 2:
				b.v1 = nb.v1
			case 3:
				b.pid2 = nb.pid2
			case 4:
				b.f2 = nb.f2
			case 5:
				b.v2 = nb.v2
			}
		}
		want := cmp.Or(cmp.Compare(a.pid1, b.pid1), cmp.Compare(a.f1, b.f1), cmp.Compare(a.v1, b.v1),
			cmp.Compare(a.pid2, b.pid2), cmp.Compare(a.f2, b.f2), cmp.Compare(a.v2, b.v2))
		ka, kb := pack(a), pack(b)
		if got := candKeyCompare(ka, kb); got != want {
			t.Fatalf("compare %+v, %+v: got %d, want %d", a, b, got, want)
		}
		if got := (wide{ka.pid1(), ka.f1(), ka.v1, ka.pid2(), ka.f2(), ka.v2}); got != a {
			t.Fatalf("key of %+v unpacks to %+v", a, got)
		}
	}
}

// TestAdoptSkipsUnpackablePattern holds adopt to candKey's field bound:
// a candidate whose pattern would have maxPatternFields+1 unfixed
// fields is skipped, one with exactly maxPatternFields is adopted.
func TestAdoptSkipsUnpackablePattern(t *testing.T) {
	opt := Options{Workers: 1}.withDefaults()
	c := &compressor{opt: opt, sc: compressPool.Get()}
	defer c.release()
	if err := c.buildUnits(compileProg(t, "t", saltSrc)); err != nil {
		t.Fatal(err)
	}
	// 42 three-register adds and one move: 128 unfixed fields.
	wide := basePattern(vm.MOV)
	for i := 0; i < 42; i++ {
		wide = combine(wide, basePattern(vm.ADD))
	}
	if n := wide.numUnfixed(); 2*n != maxPatternFields+1 {
		t.Fatalf("half pattern has %d unfixed fields", n)
	}
	id := c.addDict(wide, patternHash(wide))
	c.cands = &c.sc.cands
	c.cands.reset(0)
	over := newCandKey(id, -1, 0, id, -1, 0) // 256 fields
	at := newCandKey(id, -1, 0, id, 0, 5)    // 255: one field specialized
	c.cands.add(over, 1, 100000)
	c.cands.add(at, 1, 90000)
	ids := c.adopt()
	if len(ids) != 1 || c.dict[ids[0]].numUnfixed() != maxPatternFields {
		t.Fatalf("adopted %v, want the one %d-field pattern", ids, maxPatternFields)
	}
}

// TestCandTableResetSize checks that reset sizes the slot array from
// this run's hint and drops a held array far larger than that.
func TestCandTableResetSize(t *testing.T) {
	var tab candTable
	tab.reset(10000)
	if n := len(tab.slots); n < 10000*4/3 || n > 4*10000 {
		t.Fatalf("reset(10000) gave %d slots", n)
	}
	tab.add(newCandKey(3, -1, 0, -1, -1, 0), 1, 2)
	tab.reset(10)
	if n := len(tab.slots); n != minCandSlots {
		t.Fatalf("reset(10) after reset(10000) kept %d slots", n)
	}
	if tab.n != 0 || tab.get(newCandKey(3, -1, 0, -1, -1, 0)) != (candStat{}) {
		t.Fatal("reset left an entry behind")
	}
}

// TestIncrementalStatsMatchRescan pins the invariant the greedy passes
// rest on: after the full scan and after every pass's rewrite, the
// incrementally maintained candidate table equals a table built by
// scanning every current unit from scratch.
func TestIncrementalStatsMatchRescan(t *testing.T) {
	sources := workload.Kernels()
	sources["wep"] = workload.Generate(workload.Wep)
	for name, src := range sources {
		prog := peepholeEPI(compileProg(t, name, src))
		for _, workers := range []int{1, 4} {
			opt := Options{Workers: workers}.withDefaults()
			c := &compressor{opt: opt, pool: opt.pool(nil), sc: compressPool.Get()}
			if err := c.buildUnits(prog); err != nil {
				t.Fatal(err)
			}
			var fresh candTable
			check := func(when string) {
				t.Helper()
				fresh.reset(candsPerUnit * len(c.units))
				for i := range c.units {
					c.scanUnit(i, 1, &fresh)
				}
				if c.cands.n != fresh.n {
					t.Fatalf("%s workers=%d %s: %d candidates, rescan finds %d",
						name, workers, when, c.cands.n, fresh.n)
				}
				for _, s := range fresh.slots {
					if s.count != 0 && c.cands.get(s.key) != s.candStat {
						t.Fatalf("%s workers=%d %s: key %+v holds %+v, rescan finds %+v",
							name, workers, when, s.key, c.cands.get(s.key), s.candStat)
					}
				}
			}
			c.startScan()
			check("after full scan")
			for pass := 1; pass <= opt.MaxPasses; pass++ {
				more := c.pass()
				check(fmt.Sprintf("after pass %d", pass))
				if !more {
					break
				}
			}
			c.release()
		}
	}
}

// TestAdoptFloorExact holds adopt's skip to what it may skip: after the
// full scan and after every pass, no candidate whose savings is at or
// below adoptFloor has B > 0, and on some input one just above it does,
// so the floor cannot rise even by one. Under B = P − W only lcc, of
// these inputs, has such a candidate.
func TestAdoptFloorExact(t *testing.T) {
	sources := workload.Kernels()
	sources["wep"] = workload.Generate(workload.Wep)
	sources["lcc"] = workload.Generate(workload.Lcc)
	for _, abundant := range []bool{false, true} {
		tight := false
		for name, src := range sources {
			prog := peepholeEPI(compileProg(t, name, src))
			opt := Options{Workers: 1, AbundantMemory: abundant}.withDefaults()
			c := &compressor{opt: opt, sc: compressPool.Get()}
			if err := c.buildUnits(prog); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				floor := c.adoptFloor()
				for _, s := range c.cands.slots {
					if s.count == 0 {
						continue
					}
					b := int(s.savings) - c.dictCostOfKey(s.key)
					if !abundant {
						b -= 12 + 11*c.seqLenOfKey(s.key)
					}
					if b > 0 && s.savings <= floor {
						t.Fatalf("%s abundant=%v %s: key %+v has savings %d at or below floor %d and B = %d",
							name, abundant, when, s.key, s.savings, floor, b)
					}
					tight = tight || b > 0 && s.savings == floor+1
				}
			}
			c.startScan()
			check("after full scan")
			for pass := 1; pass <= opt.MaxPasses; pass++ {
				more := c.pass()
				check(fmt.Sprintf("after pass %d", pass))
				if !more {
					break
				}
			}
			c.release()
		}
		if !tight {
			t.Errorf("abundant=%v: no candidate one above the floor pays; the floor is not the largest exact one", abundant)
		}
	}
}
