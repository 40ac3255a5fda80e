package brisc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/paging"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// xipObject compiles and compresses one source.
func xipObject(t testing.TB, name, src string, opt Options) *Object {
	t.Helper()
	prog := compileProg(t, name, src)
	obj, err := Compress(prog, opt)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return obj
}

type runResult struct {
	code  int32
	out   string
	steps int64
	units int64
	trace []int32
}

// runFull executes obj through the whole-image fast path. A capSteps
// argument bounds the run; hitting the cap is treated as normal
// termination so long-running kernels can be compared on a truncated
// prefix (both executors trap at the identical step).
func runFull(t testing.TB, obj *Object, traced bool, capSteps ...int64) runResult {
	t.Helper()
	var out bytes.Buffer
	it := NewInterp(obj, 1<<20, &out)
	var r runResult
	if traced {
		it.Trace = func(off int32) { r.trace = append(r.trace, off) }
	}
	code, err := it.Run(stepCap(capSteps))
	if err != nil && !(len(capSteps) > 0 && errors.Is(err, ErrOutOfSteps)) {
		t.Fatalf("full run: %v", err)
	}
	r.code, r.out, r.steps, r.units = code, out.String(), it.Steps, it.Units
	return r
}

// runXIP executes obj demand-paged and returns result plus cache stats.
func runXIP(t testing.TB, obj *Object, opt XIPOptions, maxPages, maxBytes int, traced bool, capSteps ...int64) (runResult, XIPStats) {
	t.Helper()
	img, err := BuildXIP(obj, opt)
	if err != nil {
		t.Fatalf("BuildXIP: %v", err)
	}
	var out bytes.Buffer
	it := NewInterp(obj, 1<<20, &out)
	if err := it.EnableXIP(img, maxPages, maxBytes); err != nil {
		t.Fatalf("EnableXIP: %v", err)
	}
	var r runResult
	if traced {
		it.Trace = func(off int32) { r.trace = append(r.trace, off) }
	}
	code, err := it.Run(stepCap(capSteps))
	if err != nil && !(len(capSteps) > 0 && errors.Is(err, ErrOutOfSteps)) {
		t.Fatalf("paged run: %v", err)
	}
	r.code, r.out, r.steps, r.units = code, out.String(), it.Steps, it.Units
	return r, it.XIPStats()
}

func stepCap(capSteps []int64) int64 {
	if len(capSteps) > 0 {
		return capSteps[0]
	}
	return 400_000_000
}

func checkSameRun(t *testing.T, label string, want, got runResult) {
	t.Helper()
	if got.code != want.code || got.out != want.out {
		t.Errorf("%s: result diverged: code %d/%d out %q/%q", label, got.code, want.code, got.out, want.out)
	}
	if got.steps != want.steps || got.units != want.units {
		t.Errorf("%s: execution shape diverged: steps %d/%d units %d/%d",
			label, got.steps, want.steps, got.units, want.units)
	}
}

// TestXIPIdentityKernels: paged execution is result-identical to the
// fully-decoded path on every kernel, across page sizes and cache
// budgets, including a one-page cache (maximum eviction pressure).
func TestXIPIdentityKernels(t *testing.T) {
	srcs := map[string]string{"salt": saltSrc}
	for name, src := range workload.Kernels() {
		srcs[name] = src
	}
	for name, src := range srcs {
		if testing.Short() && name != "fib" && name != "salt" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			obj := xipObject(t, name, src, Options{})
			// Long-running kernels are compared on a bounded prefix: both
			// executors must trap at the identical step with identical
			// output and trace, which exercises paging just as hard.
			const cap = 2_000_000
			want := runFull(t, obj, true, cap)
			// The full 3x3 grid is cheap for fib/salt; the long-running
			// kernels cover the two extremes (unbounded, one-page).
			pageSizes, caches := []int{0, 64, 256}, []int{0, 1, 4}
			if name != "fib" && name != "salt" {
				pageSizes, caches = []int{64}, []int{0, 1}
			}
			for _, pageSize := range pageSizes {
				for _, maxPages := range caches {
					got, stats := runXIP(t, obj, XIPOptions{PageSize: pageSize}, maxPages, 0, true, cap)
					label := fmt.Sprintf("page=%d cache=%d", pageSize, maxPages)
					checkSameRun(t, label, want, got)
					if !int32SlicesEqual(want.trace, got.trace) {
						t.Errorf("%s: unit trace diverged (len %d vs %d)", label, len(want.trace), len(got.trace))
					}
					if maxPages > 0 && stats.PeakResidentPages > maxPages {
						t.Errorf("%s: peak resident pages %d over budget %d", label, stats.PeakResidentPages, maxPages)
					}
					if stats.Faults == 0 {
						t.Errorf("%s: no page faults recorded", label)
					}
				}
			}
		})
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestXIPIdentityExamples: identity on every checked-in example module.
func TestXIPIdentityExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "modules")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples dir: %v", err)
	}
	ran := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".mc") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			obj := xipObject(t, e.Name(), string(src), Options{})
			want := runFull(t, obj, false)
			for _, maxPages := range []int{0, 2} {
				got, _ := runXIP(t, obj, XIPOptions{PageSize: 128}, maxPages, 0, false)
				checkSameRun(t, fmt.Sprintf("cache=%d", maxPages), want, got)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no example modules found")
	}
}

// TestXIPIdentityWorkloads: identity on the workload profiles, under
// both naive and profile-driven layout, with byte-budget caches.
func TestXIPIdentityWorkloads(t *testing.T) {
	profiles := []workload.Profile{workload.Quick, workload.Wep}
	if !testing.Short() {
		profiles = append(profiles, workload.Lcc, workload.Word)
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			obj := xipObject(t, p.Name, workload.Generate(p), Options{})
			want := runFull(t, obj, true)
			counts := traceBlockCounts(want.trace, obj)
			for _, opt := range []XIPOptions{
				{PageSize: 256},
				{PageSize: 256, BlockCounts: counts},
			} {
				layout := "seq"
				if opt.BlockCounts != nil {
					layout = "hot"
				}
				got, stats := runXIP(t, obj, opt, 0, 64<<10, true)
				checkSameRun(t, layout, want, got)
				if !int32SlicesEqual(want.trace, got.trace) {
					t.Errorf("%s: unit trace diverged", layout)
				}
				if stats.PeakResidentBytes > 64<<10 {
					t.Errorf("%s: peak resident %d bytes over 64KiB budget", layout, stats.PeakResidentBytes)
				}
			}
		})
	}
}

// traceBlockCounts folds a unit trace into per-block execution counts.
func traceBlockCounts(trace []int32, obj *Object) map[int32]int64 {
	unitCounts := make(map[int32]int64)
	for _, off := range trace {
		unitCounts[off]++
	}
	return BlockCountsFromTrace(obj, unitCounts)
}

// TestXIPSeams: page-seam coverage. With small pages the executed path
// must include (a) a control transfer landing on a block that is not
// the first segment of its page — a jump landing mid-page — and (b) a
// fall-through whose successor unit lives on a different page, while
// execution stays identical to the fully-decoded path.
func TestXIPSeams(t *testing.T) {
	obj := xipObject(t, "quick", workload.Generate(workload.Quick), Options{})
	want := runFull(t, obj, true)

	sawMidPageJump, sawCrossPageFall := false, false
	for _, pageSize := range []int{64, 96, 160, 256} {
		img, err := BuildXIP(obj, XIPOptions{PageSize: pageSize})
		if err != nil {
			t.Fatalf("BuildXIP: %v", err)
		}
		// Map each executed offset to (page, local) through the segment
		// table.
		segOf := func(off int32) *segment {
			for i := range img.segs {
				if img.segs[i].start <= off && off < img.segs[i].end {
					return &img.segs[i]
				}
			}
			return nil
		}
		got, stats := runXIP(t, obj, XIPOptions{PageSize: pageSize}, 3, 0, true)
		checkSameRun(t, fmt.Sprintf("page=%d", pageSize), want, got)
		if stats.Faults <= int64(img.NumPages()) && stats.Evictions == 0 && img.NumPages() > 3 {
			t.Errorf("page=%d: %d pages, cache 3, but only %d faults and no evictions",
				pageSize, img.NumPages(), stats.Faults)
		}
		for i := 1; i < len(got.trace); i++ {
			prev, cur := segOf(got.trace[i-1]), segOf(got.trace[i])
			if prev == nil || cur == nil || prev.page == cur.page {
				continue
			}
			if cur.start == got.trace[i] && cur.local > 0 {
				sawMidPageJump = true
			}
			if prev.end == cur.start {
				// Linear successor on another page: the transfer was
				// either a fall-through or a branch to the next block;
				// both exercise the cross-page seam.
				sawCrossPageFall = true
			}
		}
	}
	if !sawMidPageJump {
		t.Error("no control transfer landed mid-page in any configuration")
	}
	if !sawCrossPageFall {
		t.Error("no cross-page transfer to a linear successor in any configuration")
	}
}

// TestXIPBoundedResidencyGauges: the paging.xip.* gauges published via
// telemetry assert the acceptance bound — resident decoded bytes never
// exceed the configured budget (the budget is over one page here, so
// no pinned-page slack applies), and the counters match XIPStats.
func TestXIPBoundedResidencyGauges(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if img.NumPages() < 8 {
		t.Fatalf("want a multi-page image, got %d pages", img.NumPages())
	}
	rec := telemetry.New()
	defer rec.Close()
	var out bytes.Buffer
	it := NewInterp(obj, 1<<20, &out)
	it.SetRecorder(rec)
	const budget = 48 << 10
	if err := it.EnableXIP(img, 0, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	stats := it.XIPStats()
	g := rec.Gauges()
	c := rec.Counters()
	if g["paging.xip.peak_resident_bytes"] != float64(stats.PeakResidentBytes) {
		t.Errorf("peak gauge %v != stats %d", g["paging.xip.peak_resident_bytes"], stats.PeakResidentBytes)
	}
	if g["paging.xip.peak_resident_bytes"] > budget {
		t.Errorf("peak resident bytes %v over %d budget", g["paging.xip.peak_resident_bytes"], budget)
	}
	if g["paging.xip.resident_bytes"] > g["paging.xip.peak_resident_bytes"] {
		t.Errorf("resident %v > peak %v", g["paging.xip.resident_bytes"], g["paging.xip.peak_resident_bytes"])
	}
	if g["paging.xip.pages"] != float64(img.NumPages()) {
		t.Errorf("pages gauge %v != %d", g["paging.xip.pages"], img.NumPages())
	}
	if c["paging.xip.faults"] != stats.Faults || c["paging.xip.hits"] != stats.Hits ||
		c["paging.xip.evictions"] != stats.Evictions {
		t.Errorf("counters (%d,%d,%d) != stats (%d,%d,%d)",
			c["paging.xip.faults"], c["paging.xip.hits"], c["paging.xip.evictions"],
			stats.Faults, stats.Hits, stats.Evictions)
	}
	if stats.Evictions == 0 {
		t.Error("byte budget produced no evictions; bound not exercised")
	}
	// A second Run after Reset must publish deltas, not re-count.
	it.Reset()
	if _, err := it.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	if c2 := rec.Counters()["paging.xip.faults"]; c2 != stats.Faults+it.XIPStats().Faults {
		t.Errorf("second-run fault counter %d, want %d", c2, stats.Faults+it.XIPStats().Faults)
	}
}

// TestXIPWorkersDeterminism: objects compressed with Workers=1 and
// Workers=8 execute identically under paging, and both match the
// fully-decoded result byte for byte.
func TestXIPWorkersDeterminism(t *testing.T) {
	src := workload.Generate(workload.Quick)
	prog := compileProg(t, "quick", src)
	obj1, err := Compress(prog, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	obj8, err := Compress(prog, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj1.Bytes(), obj8.Bytes()) {
		t.Fatal("Workers=1 vs 8 objects differ; paged comparison is meaningless")
	}
	want := runFull(t, obj1, false)
	got1, _ := runXIP(t, obj1, XIPOptions{PageSize: 128}, 2, 0, false)
	got8, _ := runXIP(t, obj8, XIPOptions{PageSize: 128}, 2, 0, false)
	checkSameRun(t, "workers=1", want, got1)
	checkSameRun(t, "workers=8", want, got8)
}

// TestXIPLayoutReducesFaults: acceptance criterion — the profile-driven
// layout must fault less than the naive sequential layout on a
// workload profile under the same cache budget.
func TestXIPLayoutReducesFaults(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	want := runFull(t, obj, true)
	counts := traceBlockCounts(want.trace, obj)

	const pageSize, cachePages = 256, 4
	seq, seqStats := runXIP(t, obj, XIPOptions{PageSize: pageSize}, cachePages, 0, false)
	hot, hotStats := runXIP(t, obj, XIPOptions{PageSize: pageSize, BlockCounts: counts}, cachePages, 0, false)
	checkSameRun(t, "seq", want, seq)
	checkSameRun(t, "hot", want, hot)
	if hotStats.Faults >= seqStats.Faults {
		t.Errorf("profiled layout did not reduce faults: hot %d >= seq %d", hotStats.Faults, seqStats.Faults)
	}
	t.Logf("faults: seq=%d hot=%d (miss rate %.2f%% -> %.2f%%)",
		seqStats.Faults, hotStats.Faults,
		100*float64(seqStats.Faults)/float64(seqStats.Faults+seqStats.Hits),
		100*float64(hotStats.Faults)/float64(hotStats.Faults+hotStats.Hits))
}

// TestXIPMemGuard: the decoded-page cache is charged against the
// governor's MaxMem; an unbounded cache walking a large image traps
// LimitMem instead of ballooning.
func TestXIPMemGuard(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 1<<16, nil)
	if err := it.EnableXIP(img, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := it.SetLimits(guard.Limits{MaxMem: 1<<16 + 8<<10}); err != nil {
		t.Fatalf("setup mem check: %v", err)
	}
	_, err = it.Run(0)
	var trap *guard.TrapError
	if !errors.As(err, &trap) || trap.Limit != guard.LimitMem {
		t.Fatalf("want LimitMem trap, got %v", err)
	}
	if !errors.Is(err, guard.ErrLimit) {
		t.Fatalf("trap does not match guard.ErrLimit: %v", err)
	}
	// The same run under a cache budget inside the limit completes.
	it2 := NewInterp(obj, 1<<16, nil)
	if err := it2.EnableXIP(img, 0, 6<<10); err != nil {
		t.Fatal(err)
	}
	if err := it2.SetLimits(guard.Limits{MaxMem: 1<<16 + 8<<10}); err != nil {
		t.Fatal(err)
	}
	if _, err := it2.Run(0); err != nil {
		t.Fatalf("bounded cache should fit the mem limit: %v", err)
	}
}

// TestXIPCorruptPageMidExecution: a PGS1 page tampered after the run
// has started surfaces as a typed integrity error on the faulting
// path, never a panic. The store's frame table is parsed from the
// serialized form so the flip lands inside one page's sealed payload.
func TestXIPCorruptPageMidExecution(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	enc := img.StoreBytes()

	// Record the fault sequence of a clean bounded run (pages refault
	// under pressure, so there are later faults to sabotage).
	clean, err := OpenXIPStore(obj, enc, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var faultSeq []int32
	it := NewInterp(obj, 1<<20, nil)
	if err := it.EnableXIP(clean, 2, 0); err != nil {
		t.Fatal(err)
	}
	it.XIPFault = func(p int32) { faultSeq = append(faultSeq, p) }
	if _, err := it.Run(400_000_000); err != nil {
		t.Fatalf("clean paged run: %v", err)
	}
	if len(faultSeq) < 4 {
		t.Fatalf("need refaults to tamper mid-execution, got %d faults", len(faultSeq))
	}

	frames := storeFrames(t, enc)
	k := len(faultSeq) / 2
	victim := faultSeq[k]

	// Re-open a fresh copy and corrupt the victim page's payload right
	// before the fault preceding its k-th load: the damage happens
	// strictly mid-execution, while other pages keep faulting fine.
	bad := append([]byte(nil), enc...)
	img2, err := OpenXIPStore(obj, bad, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	it2 := NewInterp(obj, 1<<20, nil)
	if err := it2.EnableXIP(img2, 2, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	it2.XIPFault = func(p int32) {
		if n == k-1 {
			f := frames[victim]
			bad[f.start+(f.end-f.start)/2] ^= 0x20
		}
		n++
	}
	_, err = it2.Run(400_000_000)
	if err == nil {
		t.Fatal("tampered page executed cleanly")
	}
	if !errors.Is(err, integrity.ErrCorrupt) || !errors.Is(err, paging.ErrCorrupt) {
		t.Fatalf("mid-execution corruption not typed: %v", err)
	}
}

type frameRange struct{ start, end int }

// storeFrames parses a PGS1 container's frame table: per-page byte
// ranges of the sealed payloads (compressed page + CRC trailer).
func storeFrames(t *testing.T, enc []byte) []frameRange {
	t.Helper()
	pos := 5 // magic + version
	uv := func() uint64 {
		v, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			t.Fatal("bad store varint")
		}
		pos += n
		return v
	}
	uv() // page size
	nPages := uv()
	uv() // last page length
	frames := make([]frameRange, 0, nPages)
	for i := uint64(0); i < nPages; i++ {
		n := int(uv())
		frames = append(frames, frameRange{start: pos, end: pos + n + integrity.ChecksumLen})
		pos += n + integrity.ChecksumLen
	}
	return frames
}

// TestXIPOpenStoreGeometryMismatch: a store built under one layout
// cannot be attached to another — the mismatch is typed corruption.
func TestXIPOpenStoreGeometryMismatch(t *testing.T) {
	obj := xipObject(t, "fib", workload.Kernels()["fib"], Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenXIPStore(obj, img.StoreBytes(), XIPOptions{PageSize: 4096})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("geometry mismatch not typed: %v", err)
	}
}

// TestXIPRejectsForeignImage: an image built from one object cannot be
// enabled on an interpreter for another.
func TestXIPRejectsForeignImage(t *testing.T) {
	objA := xipObject(t, "fib", workload.Kernels()["fib"], Options{})
	objB := xipObject(t, "sieve", workload.Kernels()["sieve"], Options{})
	img, err := BuildXIP(objA, XIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewInterp(objB, 0, nil).EnableXIP(img, 0, 0); err == nil {
		t.Fatal("foreign image accepted")
	}
}

// modeRun is everything observable about one Run: the unit trace,
// counters, exit, output, error text, and page faults.
type modeRun struct {
	trace        []int32
	steps, units int64
	code         int32
	out          string
	err          error
	faults       int64
}

// runEntry resets it, enters at pc with Markov context ctx, and runs
// under a step limit.
func runEntry(it *Interp, pc int32, ctx int, limit int64) modeRun {
	var r modeRun
	var out bytes.Buffer
	it.Reset()
	it.Out = &out
	it.PC, it.ctx = pc, ctx
	it.Trace = func(off int32) { r.trace = append(r.trace, off) }
	code, err := it.Run(limit)
	r.steps, r.units, r.code, r.out = it.Steps, it.Units, code, out.String()
	r.err = err
	r.faults = it.XIPStats().Faults
	return r
}

func checkSameModeRun(t *testing.T, label string, want, got modeRun) {
	t.Helper()
	if got.steps != want.steps || got.units != want.units || got.code != want.code ||
		got.out != want.out || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("%s: steps %d/%d units %d/%d exit %d/%d out %q/%q err %v/%v", label,
			got.steps, want.steps, got.units, want.units, got.code, want.code,
			got.out, want.out, got.err, want.err)
	}
	if !int32SlicesEqual(got.trace, want.trace) {
		t.Errorf("%s: unit trace diverged (len %d vs %d)", label, len(got.trace), len(want.trace))
	}
}

// TestInterpOffGridFallbackAcrossModes drives the stepwise fallback
// from the dispatch loop: execution entered mid-unit (as a corrupted
// return address would) decodes through StepUnit until it lands back
// on the unit grid. Whole-image and paged runs (one-page and unbounded
// budgets) must agree on the trace, counters, error, and exit. An
// Interp that ran whole-image and is then Reset into paged mode must
// match a fresh paged Interp exactly, fault count included: a paged
// run must never chain jumps through the earlier whole-image table.
func TestInterpOffGridFallbackAcrossModes(t *testing.T) {
	obj := xipObject(t, "loop", loopSrc, Options{})
	pre, err := obj.predecode()
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildXIP(obj, XIPOptions{PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if img.NumPages() < 2 {
		t.Fatalf("want a multi-page image, got %d pages", img.NumPages())
	}

	// Entries: the first mid-unit offset at context 0 (decodes garbage
	// and fails), and the first mid-unit (offset, context) pair that
	// decodes into a unit and resynchronizes onto the grid.
	type entry struct {
		pc  int32
		ctx int
	}
	var entries []entry
	probe := NewInterp(obj, 1<<20, nil)
	for off := int32(0); off < int32(len(obj.Code)) && len(entries) < 2; off++ {
		if _, ok := pre.offIdx[off]; ok {
			continue
		}
		if len(entries) == 0 {
			entries = append(entries, entry{off, 0})
			continue
		}
		for ctx := 0; ctx < len(obj.Contexts); ctx++ {
			if r := runEntry(probe, off, ctx, 200); r.steps >= 100 {
				entries = append(entries, entry{off, ctx})
				break
			}
		}
	}
	if len(entries) < 2 {
		t.Fatal("no mid-unit entry resynchronizes onto the unit grid")
	}

	const limit = 2_000
	for _, e := range entries {
		label := fmt.Sprintf("entry %d ctx %d", e.pc, e.ctx)
		want := runEntry(NewInterp(obj, 1<<20, nil), e.pc, e.ctx, limit)
		if len(want.trace) == 0 || want.trace[0] != e.pc {
			t.Fatalf("%s: run did not start at the off-grid entry: %v", label, want.trace)
		}
		for _, maxPages := range []int{1, 0} {
			it := NewInterp(obj, 1<<20, nil)
			if err := it.EnableXIP(img, maxPages, 0); err != nil {
				t.Fatal(err)
			}
			got := runEntry(it, e.pc, e.ctx, limit)
			checkSameModeRun(t, fmt.Sprintf("%s paged cache=%d", label, maxPages), want, got)
		}
	}
	if r := runEntry(NewInterp(obj, 1<<20, nil), entries[0].pc, entries[0].ctx, limit); !errors.Is(r.err, ErrCorrupt) {
		t.Errorf("garbage entry should fail to decode, got %v", r.err)
	}
	if r := runEntry(NewInterp(obj, 1<<20, nil), entries[1].pc, entries[1].ctx, limit); !errors.Is(r.err, ErrOutOfSteps) {
		t.Errorf("resynchronized run should hit the step limit, got %v", r.err)
	}

	// Whole-image first, then Reset into paged mode on the same Interp.
	for _, e := range append([]entry{{0, 0}}, entries...) {
		label := fmt.Sprintf("reuse entry %d ctx %d", e.pc, e.ctx)
		fresh := NewInterp(obj, 1<<20, nil)
		if err := fresh.EnableXIP(img, 1, 0); err != nil {
			t.Fatal(err)
		}
		want := runEntry(fresh, e.pc, e.ctx, limit)
		reused := NewInterp(obj, 1<<20, nil)
		runEntry(reused, e.pc, e.ctx, limit)
		if err := reused.EnableXIP(img, 1, 0); err != nil {
			t.Fatal(err)
		}
		got := runEntry(reused, e.pc, e.ctx, limit)
		checkSameModeRun(t, label, want, got)
		if got.faults != want.faults {
			t.Errorf("%s: %d faults, fresh paged Interp took %d", label, got.faults, want.faults)
		}
	}
}
