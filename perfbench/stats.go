package main

import (
	"math"
	"sort"
	"time"
)

// tally counts ops and keeps the first few failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, s := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, s)
		}
	}
}

// opStats is the timed view of one loop: every op's latency, the wall
// time the loop ran, and its failures.
type opStats struct {
	durs    []time.Duration
	elapsed time.Duration
	tally
}

func (s *opStats) add(d time.Duration, err error) {
	s.durs = append(s.durs, d)
	s.record(err)
}

func (s *opStats) opsPerS() float64 { return float64(len(s.durs)) / s.elapsed.Seconds() }

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
