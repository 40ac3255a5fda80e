package faultify

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/native"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/wire"
)

// rounds per module: 3 modules × roundsPerModule × 5 mutators ≥ 500
// mutants per format, the harness's coverage floor.
const roundsPerModule = 40

// execLimits bounds governed execution of BRISC mutants: a mutant that
// parses may loop forever or recurse unboundedly, and the sweep's
// contract is that the governor — not the test timeout — stops it.
func execLimits() guard.Limits {
	return guard.Limits{MaxSteps: 200_000, MaxCallDepth: 512}.WithTimeout(10 * time.Second)
}

// typedKinds is the complete set of errors a hardened decode/execute
// path may surface. Anything else escaping to the caller is a bug.
var typedKinds = []error{
	integrity.ErrTruncated,
	integrity.ErrCorrupt,
	integrity.ErrVersion,
	integrity.ErrTooLarge,
	guard.ErrLimit,
	vm.ErrOutOfSteps,
	vm.ErrMemFault,
	vm.ErrDivByZero,
	vm.ErrBadPC,
	brisc.ErrOutOfSteps,
	brisc.ErrMemFault,
	brisc.ErrDivByZero,
}

func isTyped(err error) bool {
	for _, k := range typedKinds {
		if errors.Is(err, k) {
			return true
		}
	}
	return false
}

// target is one (format, artifact, decoder) triple under test.
type target struct {
	format string
	data   []byte
	check  func(mutant []byte) error
}

// compileModules compiles every example module to IR + native code.
func compileModules(t *testing.T) (names []string, mods []*ir.Module, progs []*vm.Program) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc"))
	if err != nil || len(files) == 0 {
		t.Skipf("no example modules found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		mod, err := cc.Compile(name, string(src))
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		prog, err := codegen.Generate(mod, codegen.Options{})
		if err != nil {
			t.Fatalf("codegen %s: %v", name, err)
		}
		names = append(names, name)
		mods = append(mods, mod)
		progs = append(progs, prog)
	}
	return names, mods, progs
}

// buildTargets produces one artifact per format per example module.
func buildTargets(t *testing.T) []target {
	t.Helper()
	names, mods, progs := compileModules(t)
	var targets []target
	for i := range names {
		wir2, err := wire.Compress(mods[i])
		if err != nil {
			t.Fatalf("wire %s: %v", names[i], err)
		}
		wirx, err := wire.CompressIndexedTraced(mods[i], wire.Options{}, nil)
		if err != nil {
			t.Fatalf("wire indexed %s: %v", names[i], err)
		}
		obj, err := brisc.Compress(progs[i], brisc.Options{})
		if err != nil {
			t.Fatalf("brisc %s: %v", names[i], err)
		}
		brs1 := obj.Bytes()
		brd1 := brisc.EncodeDict(obj.LearnedDict())
		fz1 := flatezip.Compress(native.EncodeVariable(progs[i].Code))
		img, err := brisc.BuildXIP(obj, brisc.XIPOptions{PageSize: 128})
		if err != nil {
			t.Fatalf("xip %s: %v", names[i], err)
		}
		pgs := img.StoreBytes()

		targets = append(targets,
			target{format: "wir2", data: wir2, check: checkWire},
			target{format: "wirx", data: wirx, check: checkIndexed},
			target{format: "brs1", data: brs1, check: checkBrisc},
			target{format: "brd1", data: brd1, check: checkDict},
			target{format: "fz1", data: fz1, check: checkFlatezip},
			target{format: "pgs", data: pgs, check: checkXIP(obj)},
		)
	}
	return targets
}

func checkWire(mutant []byte) error {
	_, err := wire.Decompress(mutant)
	return err
}

func checkIndexed(mutant []byte) error {
	r, err := wire.OpenIndexed(mutant)
	if err != nil {
		return err
	}
	_, err = r.LoadAll()
	return err
}

// checkBrisc parses the mutant and, when it parses, runs it through
// both execution engines under the governor: a structurally valid
// mutant must still terminate inside the limits.
func checkBrisc(mutant []byte) error {
	obj, err := brisc.Parse(mutant)
	if err != nil {
		return err
	}
	it := brisc.NewInterp(obj, 0, io.Discard)
	if err := it.SetLimits(execLimits()); err != nil {
		return err
	}
	if _, err := it.Run(0); err != nil {
		return err
	}
	jp, err := brisc.JIT(obj)
	if err != nil {
		return err
	}
	m := vm.NewMachine(jp, 0, io.Discard)
	if err := m.SetLimits(execLimits()); err != nil {
		return err
	}
	_, err = m.Run(0)
	return err
}

// checkXIP reopens the mutant page store against the original object
// and, when the header and geometry still line up, executes it demand-
// paged with a bounded predecode cache. Page payloads are integrity-
// checked only at fault time, so a corrupt page may surface
// mid-execution — the contract is a typed error (or a governor trap),
// never a panic and never a silent wrong result from tampered code.
func checkXIP(obj *brisc.Object) func([]byte) error {
	return func(mutant []byte) error {
		img, err := brisc.OpenXIPStore(obj, mutant, brisc.XIPOptions{PageSize: 128})
		if err != nil {
			return err
		}
		it := brisc.NewInterp(obj, 0, io.Discard)
		if err := it.EnableXIP(img, 4, 0); err != nil {
			return err
		}
		if err := it.SetLimits(execLimits()); err != nil {
			return err
		}
		_, err = it.Run(0)
		return err
	}
}

func checkDict(mutant []byte) error {
	_, err := brisc.DecodeDict(mutant)
	return err
}

func checkFlatezip(mutant []byte) error {
	_, err := flatezip.DecompressLimit(mutant, 1<<26)
	return err
}

// TestValidArtifactsDecode is the sweep's control group: every
// unmutated artifact must decode (and execute) cleanly.
func TestValidArtifactsDecode(t *testing.T) {
	for _, tgt := range buildTargets(t) {
		if err := tgt.check(tgt.data); err != nil {
			t.Errorf("%s: valid artifact rejected: %v", tgt.format, err)
		}
	}
}

// TestFaultSweep drives ≥500 deterministic mutations per format
// through the hardened decode/execute paths. The contract: no panic
// ever escapes, execution always terminates inside the governor, and
// every failure is a typed error from the robustness taxonomy.
func TestFaultSweep(t *testing.T) {
	// Contract violations route through the flight recorder: the first
	// one dumps the event ring into the test log for the post-mortem.
	rec := telemetry.New()
	rec.EnableFlight(64)
	var flight bytes.Buffer
	rec.SetFlightOutput(&flight)
	defer func() {
		rec.Close()
		if flight.Len() > 0 {
			t.Logf("flight dump:\n%s", flight.String())
		}
	}()

	perFormat := map[string]int{}
	for ti, tgt := range buildTargets(t) {
		tgt := tgt
		seed := int64(1000 + ti) // fixed seeds: the sweep replays exactly
		sweep(tgt.data, seed, roundsPerModule, func(mutator string, round int, mutant []byte) {
			perFormat[tgt.format]++
			rec.Add("faultify.mutants", 1)
			err := runChecked(tgt.check, mutant)
			if err != nil && !isTyped(err) {
				rec.Add("faultify.failures", 1)
				rec.Trip(fmt.Sprintf("faultify: %s/%s seed=%d round=%d: %v", tgt.format, mutator, seed, round, err))
				t.Errorf("%s/%s seed=%d round=%d: untyped error: %v",
					tgt.format, mutator, seed, round, err)
			}
		})
	}
	for format, n := range perFormat {
		if n < 500 {
			t.Errorf("%s: only %d mutants swept, want >= 500", format, n)
		}
	}
}

// sweep runs rounds full passes of the mutator suite over artifact,
// calling check(mutatorName, round, mutant) for each generated mutant.
// Mutants are derived from a single rng seeded with seed, so the whole
// sweep — len(Mutators()) × rounds mutants — replays exactly.
func sweep(artifact []byte, seed int64, rounds int, check func(mutator string, round int, mutant []byte)) {
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		for _, m := range Mutators() {
			check(m.Name, round, m.Apply(artifact, rng))
		}
	}
}

// runChecked invokes check, converting a panic into an error so the
// sweep reports the offending mutant instead of dying.
func runChecked(check func([]byte) error, mutant []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return check(mutant)
}

// TestMutatorsDeterministic pins the harness itself: the same seed
// must yield byte-identical mutants on every run.
func TestMutatorsDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	var first [][]byte
	sweep(data, 42, 3, func(_ string, _ int, m []byte) {
		first = append(first, append([]byte(nil), m...))
	})
	i := 0
	sweep(data, 42, 3, func(mutator string, round int, m []byte) {
		if string(m) != string(first[i]) {
			t.Fatalf("%s round %d: mutant differs between identical sweeps", mutator, round)
		}
		i++
	})
	if i != 3*len(Mutators()) {
		t.Fatalf("sweep produced %d mutants, want %d", i, 3*len(Mutators()))
	}
}

// TestMutatorsPreserveInput verifies Apply never aliases or mutates
// its input buffer.
func TestMutatorsPreserveInput(t *testing.T) {
	orig := []byte("immutable input artifact bytes 0123456789")
	data := append([]byte(nil), orig...)
	sweep(data, 7, 5, func(mutator string, _ int, _ []byte) {
		if string(data) != string(orig) {
			t.Fatalf("%s modified its input", mutator)
		}
	})
}
