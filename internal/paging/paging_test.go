package paging

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColdFaults(t *testing.T) {
	s := NewSimulator(Config{PageSize: 4096, ResidentPages: 0})
	for i := 0; i < 100; i++ {
		s.Touch(int64(i*4096), 4)
	}
	r := s.Result()
	if r.Faults != 100 || r.PagesTouched != 100 {
		t.Errorf("faults=%d touched=%d, want 100/100", r.Faults, r.PagesTouched)
	}
	if r.Instructions != 100 {
		t.Errorf("instructions=%d", r.Instructions)
	}
}

func TestNoRefaultWhenResident(t *testing.T) {
	s := NewSimulator(Config{ResidentPages: 10})
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 5; i++ {
			s.Touch(int64(i*4096), 4)
		}
	}
	r := s.Result()
	if r.Faults != 5 {
		t.Errorf("faults=%d, want 5 (working set fits)", r.Faults)
	}
}

func TestLRUThrashing(t *testing.T) {
	// Cyclic access over N+1 pages with budget N is LRU's worst case:
	// every access faults after warmup.
	s := NewSimulator(Config{ResidentPages: 4})
	rounds := 10
	for rep := 0; rep < rounds; rep++ {
		for i := 0; i < 5; i++ {
			s.Touch(int64(i*4096), 4)
		}
	}
	r := s.Result()
	if r.Faults != int64(rounds*5) {
		t.Errorf("faults=%d, want %d (full thrash)", r.Faults, rounds*5)
	}
}

func TestLRUKeepsHotPage(t *testing.T) {
	s := NewSimulator(Config{ResidentPages: 2})
	// Page 0 is touched between every other access; it must stay
	// resident while pages 1..4 cycle through the second slot.
	for i := 1; i <= 4; i++ {
		s.Touch(0, 4)
		s.Touch(int64(i*4096), 4)
	}
	s.Touch(0, 4)
	r := s.Result()
	if r.Faults != 5 { // page0 once + pages 1..4
		t.Errorf("faults=%d, want 5", r.Faults)
	}
}

func TestCrossPageFetch(t *testing.T) {
	s := NewSimulator(Config{PageSize: 4096})
	s.Touch(4094, 4) // spans pages 0 and 1
	r := s.Result()
	if r.PagesTouched != 2 || r.Faults != 2 {
		t.Errorf("cross-page fetch: touched=%d faults=%d", r.PagesTouched, r.Faults)
	}
}

func TestTimeModel(t *testing.T) {
	cfg := Config{FaultCost: 1000, InstrCost: 0.1}
	if got := cfg.Time(10, 1, 2.0); got != 10*0.1*2.0+1000 {
		t.Errorf("time = %v", got)
	}
	s := NewSimulator(cfg)
	for i := 0; i < 10; i++ {
		s.Touch(0, 4)
	}
	r := s.Result()
	if r.Instructions != 10 || r.Faults != 1 {
		t.Fatalf("instructions=%d faults=%d, want 10/1", r.Instructions, r.Faults)
	}
	if r.TotalTime != cfg.Time(10, 1, 1) {
		t.Errorf("total time %v is not the native-speed model %v", r.TotalTime, cfg.Time(10, 1, 1))
	}
}

// TestCompressedCodeWinsWhenMemoryTight reproduces the intro scenario
// analytically: the same logical execution over code half the size,
// at 12x CPU penalty, beats native when the resident budget is small
// and fault cost dominates.
func TestCompressedCodeWinsWhenMemoryTight(t *testing.T) {
	run := func(codeSize, budget, fetches int, penalty float64) float64 {
		cfg := Config{PageSize: 4096, ResidentPages: budget}
		s := NewSimulator(cfg)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < fetches; i++ {
			s.Touch(int64(rng.Intn(codeSize)), 4)
		}
		r := s.Result()
		return cfg.Time(r.Instructions, r.Faults, penalty)
	}
	// Memory-tight: 5 resident pages against 40 pages of native code
	// (vs 20 pages compressed). Faults dominate; 12x CPU is repaid.
	nativeR := run(40*4096, 5, 50000, 1.0)
	briscR := run(20*4096, 5, 50000, 12.0)
	if briscR >= nativeR {
		t.Errorf("compressed+interpreted (%.0fµs) should beat paged native (%.0fµs)",
			briscR, nativeR)
	}
	// With abundant memory and a long-running program, only cold
	// faults remain and native CPU speed must win.
	nativeBig := run(40*4096, 64, 5_000_000, 1.0)
	briscBig := run(20*4096, 64, 5_000_000, 12.0)
	if nativeBig >= briscBig {
		t.Errorf("native (%.0fµs) should beat interpretation (%.0fµs) with abundant memory",
			nativeBig, briscBig)
	}
}

// TestQuickFaultInvariants: every distinct page faults at least once
// (so faults >= pages touched), faults never exceed total page
// touches, and a larger budget never causes more faults (LRU is a
// stack algorithm, so it has no Belady anomaly).
func TestQuickFaultInvariants(t *testing.T) {
	f := func(seed int64, budget uint8) bool {
		small := int(budget%16) + 1
		rng := rand.New(rand.NewSource(seed))
		type touch struct {
			addr int64
			size int
		}
		n := rng.Intn(1500)
		touches := make([]touch, n)
		for i := range touches {
			touches[i] = touch{int64(rng.Intn(1 << 16)), 1 + rng.Intn(8)}
		}
		run := func(pages int) Result {
			s := NewSimulator(Config{ResidentPages: pages})
			for _, tc := range touches {
				s.Touch(tc.addr, tc.size)
			}
			return s.Result()
		}
		rSmall := run(small)
		rBig := run(small * 2)
		var totalPageTouches int64
		for _, tc := range touches {
			first := tc.addr / 4096
			last := (tc.addr + int64(tc.size) - 1) / 4096
			totalPageTouches += last - first + 1
		}
		return rSmall.Faults >= int64(rSmall.PagesTouched) &&
			rSmall.Faults <= totalPageTouches &&
			rBig.Faults <= rSmall.Faults &&
			rBig.PagesTouched == rSmall.PagesTouched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
