package brisc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vm"
)

const loopSrc = `
int acc;
int step(int x) { acc = acc + x; return acc; }
int main(void) {
	int i;
	i = 0;
	while (i < 200) {
		step(i);
		i = i + 1;
	}
	putint(acc);
	return acc % 7;
}`

// TestInterpTelemetryEquivalence is the guard the tentpole requires:
// attaching a recorder must not change interpreter behaviour in any
// observable way — same output, exit code, step and unit counts — and
// the published counters must agree with the interpreter's own totals.
// Whole-image and paged execution (one-page and unbounded budgets) run
// the same dispatch loop, so their counters must also agree with each
// other.
func TestInterpTelemetryEquivalence(t *testing.T) {
	prog := compileProg(t, "loop", loopSrc)
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildXIP(obj, XIPOptions{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	type counts struct{ steps, units, dispatch, blockEntries int64 }
	modes := []struct {
		name     string
		paged    bool
		maxPages int
	}{
		{"whole", false, 0},
		{"paged-1", true, 1},
		{"paged-unbounded", true, 0},
	}
	var first counts
	for mi, mode := range modes {
		run := func(rec *telemetry.Recorder) (*Interp, string) {
			var out bytes.Buffer
			it := NewInterp(obj, 1<<20, &out)
			if mode.paged {
				if err := it.EnableXIP(img, mode.maxPages, 0); err != nil {
					t.Fatal(err)
				}
			}
			it.SetRecorder(rec)
			if _, err := it.Run(50_000_000); err != nil {
				t.Fatalf("%s: interp run: %v", mode.name, err)
			}
			return it, out.String()
		}

		plain, plainOut := run(nil)
		rec := telemetry.New()
		traced, tracedOut := run(rec)

		if plainOut != tracedOut {
			t.Errorf("%s: output differs with telemetry: %q vs %q", mode.name, plainOut, tracedOut)
		}
		if plain.ExitCode != traced.ExitCode {
			t.Errorf("%s: exit code differs: %d vs %d", mode.name, plain.ExitCode, traced.ExitCode)
		}
		if plain.Steps != traced.Steps || plain.Units != traced.Units {
			t.Errorf("%s: counts differ: steps %d/%d units %d/%d",
				mode.name, plain.Steps, traced.Steps, plain.Units, traced.Units)
		}

		c := counts{
			steps:        rec.Counter("brisc.interp.steps"),
			units:        rec.Counter("brisc.interp.units"),
			blockEntries: rec.Counter("brisc.interp.block_entries"),
		}
		for name, v := range rec.Counters() {
			if strings.HasPrefix(name, "brisc.interp.dispatch.") {
				c.dispatch += v
			}
		}
		if c.steps != traced.Steps {
			t.Errorf("%s: steps counter = %d, interp counted %d", mode.name, c.steps, traced.Steps)
		}
		if c.units != traced.Units {
			t.Errorf("%s: units counter = %d, interp counted %d", mode.name, c.units, traced.Units)
		}
		if c.dispatch != traced.Steps {
			t.Errorf("%s: dispatch counters sum to %d, want steps %d", mode.name, c.dispatch, traced.Steps)
		}
		if c.blockEntries <= 0 {
			t.Errorf("%s: no block entries recorded", mode.name)
		}
		if rec.Histogram("brisc.interp.block_entries_per_block").Count == 0 {
			t.Errorf("%s: no per-block entry histogram recorded", mode.name)
		}
		if mode.paged && rec.Counter("paging.xip.faults") <= 0 {
			t.Errorf("%s: no page faults recorded", mode.name)
		}
		if mi == 0 {
			first = c
		} else if c != first {
			t.Errorf("%s: counters %+v differ from %s %+v", mode.name, c, modes[0].name, first)
		}
	}
}

// TestCompressTracedMatchesUntraced pins that tracing is purely
// observational: the traced compressor and JIT emit byte-identical
// artifacts, while the recorder sees the pass structure and the
// paper's P/W accounting.
func TestCompressTracedMatchesUntraced(t *testing.T) {
	prog := compileProg(t, "loop", loopSrc)
	plain, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	traced, err := CompressTraced(prog, Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Error("traced compression produced a different object")
	}

	passes := 0
	for _, sr := range rec.Spans() {
		if sr.Name == "brisc.pass" {
			passes++
		}
	}
	if passes == 0 || passes != traced.Passes {
		t.Errorf("recorded %d brisc.pass spans, object reports %d passes", passes, traced.Passes)
	}
	if rec.Counter("brisc.pass.candidates") <= 0 {
		t.Error("no candidates counted")
	}
	if rec.Counter("brisc.pass.adopted") > 0 {
		if rec.Counter("brisc.dict.savings_p") <= 0 || rec.Counter("brisc.dict.cost_w") <= 0 {
			t.Error("patterns adopted but P/W counters missing")
		}
		if rec.Histogram("brisc.adopt.benefit").Count != rec.Counter("brisc.pass.adopted") {
			t.Errorf("benefit histogram n=%d != adopted %d",
				rec.Histogram("brisc.adopt.benefit").Count, rec.Counter("brisc.pass.adopted"))
		}
	}

	jplain, err := JIT(plain)
	if err != nil {
		t.Fatal(err)
	}
	jtraced, err := JITTraced(traced, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jplain.Code) != len(jtraced.Code) {
		t.Errorf("JIT code length differs: %d vs %d", len(jplain.Code), len(jtraced.Code))
	}
	if got := rec.Counter("brisc.jit.instrs_out"); got != int64(len(jtraced.Code)) {
		t.Errorf("jit instrs_out counter = %d, want %d", got, len(jtraced.Code))
	}
	c1, o1 := runVM(t, jplain)
	c2, o2 := runVM(t, jtraced)
	if c1 != c2 || o1 != o2 {
		t.Errorf("JIT behaviour differs: (%d,%q) vs (%d,%q)", c1, o1, c2, o2)
	}
}

// TestVMDispatchCounters checks the plain VM's counter path against
// its own step total.
func TestVMDispatchCounters(t *testing.T) {
	prog := compileProg(t, "loop", loopSrc)
	rec := telemetry.New()
	var out bytes.Buffer
	m := vm.NewMachine(prog, 1<<20, &out)
	m.SetRecorder(rec)
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("vm.steps"); got != m.Steps {
		t.Errorf("vm.steps counter = %d, machine counted %d", got, m.Steps)
	}
	var dispatch int64
	for name, v := range rec.Counters() {
		if len(name) > 12 && name[:12] == "vm.dispatch." {
			dispatch += v
		}
	}
	if dispatch != m.Steps {
		t.Errorf("dispatch counters sum to %d, want steps %d", dispatch, m.Steps)
	}
}
