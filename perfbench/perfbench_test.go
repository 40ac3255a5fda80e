package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/parallel"
)

// smallProgram builds one serve-sized input for the checker tests.
func smallProgram(t *testing.T) *program {
	t.Helper()
	ps, err := buildAll(serveSources(7)[:1], parallel.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps[0]
}

func flip(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0x40
	return c
}

// TestNegativeControl shows the checker works: with one artifact byte
// flipped, and separately with one reference output altered, every op
// on every path is counted as failed.
func TestNegativeControl(t *testing.T) {
	good := smallProgram(t)
	corrupt := *good
	corrupt.wire, corrupt.brisc, corrupt.xip = flip(good.wire), flip(good.brisc), flip(good.xip)
	wrongRef := *good
	wrongRef.want.out += "0"

	for _, tc := range []struct {
		name string
		p    *program
	}{{"corrupt artifact", &corrupt}, {"altered reference", &wrongRef}} {
		ph := newPathPhase([]*program{tc.p}, tightBudget, &calibration{})
		ph.cycle(nil)
		if ph.attempted != int(numPaths) || ph.failed != int(numPaths) {
			t.Errorf("%s: %d of %d ops failed, want all of %d: %v", tc.name, ph.failed, ph.attempted, numPaths, ph.errs)
		}
	}
	if err := publish(&corrupt, nil, nil); !errors.Is(err, errArtifact) {
		t.Errorf("publish against corrupt set-up bytes: %v, want errArtifact", err)
	}

	ph := newPathPhase([]*program{good}, tightBudget, &calibration{})
	ph.cycle(nil)
	if ph.failed != 0 {
		t.Fatalf("good program failed: %v", ph.errs)
	}
}

// TestNegativeControlServe: compress answers are compared with the
// set-up bytes and run answers with the reference.
func TestNegativeControlServe(t *testing.T) {
	good := smallProgram(t)
	bad := *good
	bad.wire, bad.brisc = flip(good.wire), flip(good.brisc)
	bad.want.out += "0"
	svc, err := startService([]*program{&bad}, serveMix(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	var st reqStats
	svc.pass(nil, &st, &calibration{})
	// Every class fails: compress answers differ from the flipped bytes,
	// run requests are refused as corrupt or differ from the reference.
	if st.failed != st.attempted || st.attempted == 0 {
		t.Errorf("%d of %d requests failed, want all: %v", st.failed, st.attempted, st.errs)
	}
}

// TestOutcomeGuard: an op whose outcome differs from the first op on
// the same program and path fails.
func TestOutcomeGuard(t *testing.T) {
	p := smallProgram(t)
	ph := newPathPhase([]*program{p}, 1, &calibration{})
	ph.op(0, pathXIP, nil)
	ph.budget = roomyBudget // same program, different fault count
	ph.op(0, pathXIP, nil)
	if ph.failed != 1 {
		t.Errorf("%d of %d ops failed, want the second: %v", ph.failed, ph.attempted, ph.errs)
	}
}

// TestDeterminism: the counts the benchmark guards repeat exactly
// across runs at one seed.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload four times")
	}
	sp, err := specByName("serve")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var e2e, traced [2]*runResult
	for i := range e2e {
		if e2e[i], err = runEndToEnd(sp, 3, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if traced[i], err = runTraced(sp, 3, 200*time.Millisecond, dir+"/trace.jsonl"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"wire_size_ratio", "brisc_size_ratio", "xip_resident_kb"} {
		if a, b := e2e[0].metrics[name], e2e[1].metrics[name]; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	for _, name := range []string{"brisc.steps_per_op", "xip.faults_per_op", "brisc.compress.dict_patterns"} {
		if a, b := traced[0].metrics[name], traced[1].metrics[name]; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}
