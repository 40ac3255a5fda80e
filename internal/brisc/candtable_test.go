package brisc

import (
	"fmt"
	"math/rand"
	"testing"

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
		k := candKey{pid1: 7, f1: 1, v1: v, pid2: -1, f2: -1}
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
				k := candKey{
					pid1: int32(rng.Intn(6)), f1: int32(rng.Intn(3)) - 1, v1: int32(rng.Intn(9)) - 4,
					pid2: int32(rng.Intn(3)) - 1, f2: int32(rng.Intn(2)) - 1, v2: int32(rng.Intn(3)),
				}
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
			k := candKey{pid1: int32(i % 37), f1: -1, v1: int32(i), pid2: int32(i % 5), f2: -1}
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
		tab.add(candKey{pid1: 1}, -1, -3)
	})
}

// TestCandTableResetSize checks that reset sizes the slot array from
// this run's hint and drops a held array far larger than that.
func TestCandTableResetSize(t *testing.T) {
	var tab candTable
	tab.reset(10000)
	if n := len(tab.slots); n < 10000*4/3 || n > 4*10000 {
		t.Fatalf("reset(10000) gave %d slots", n)
	}
	tab.add(candKey{pid1: 3}, 1, 2)
	tab.reset(10)
	if n := len(tab.slots); n != minCandSlots {
		t.Fatalf("reset(10) after reset(10000) kept %d slots", n)
	}
	if tab.n != 0 || tab.get(candKey{pid1: 3}) != (candStat{}) {
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
