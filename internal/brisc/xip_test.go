package brisc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/integrity"
	"repro/internal/telemetry"
	"repro/internal/vm"
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
// no pinned-page slack applies), and the counters match XIPStats. The
// budget is half the peak an unbounded run reaches, so it must evict:
// a fixed figure stops evicting once decoded pages get smaller.
func TestXIPBoundedResidencyGauges(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if img.NumPages() < 8 {
		t.Fatalf("want a multi-page image, got %d pages", img.NumPages())
	}
	_, unbounded := runXIP(t, obj, XIPOptions{PageSize: 256}, 0, 0, false)
	budget := int(unbounded.PeakResidentBytes / 2)
	rec := telemetry.New()
	defer rec.Close()
	var out bytes.Buffer
	it := NewInterp(obj, 1<<20, &out)
	it.SetRecorder(rec)
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
	if g["paging.xip.peak_resident_bytes"] > float64(budget) {
		t.Errorf("peak resident bytes %v over %d budget", g["paging.xip.peak_resident_bytes"], budget)
	}
	if g["paging.xip.resident_bytes"] > g["paging.xip.peak_resident_bytes"] {
		t.Errorf("resident %v > peak %v", g["paging.xip.resident_bytes"], g["paging.xip.peak_resident_bytes"])
	}
	if g["paging.xip.pages"] != float64(img.NumPages()) {
		t.Errorf("pages gauge %v != %d", g["paging.xip.pages"], img.NumPages())
	}
	if c["paging.xip.faults"] != stats.Faults || c["paging.xip.hits"] != stats.Hits ||
		c["paging.xip.evictions"] != stats.Evictions || c["paging.xip.segment_decodes"] != stats.SegmentDecodes {
		t.Errorf("counters (%d,%d,%d,%d) != stats (%d,%d,%d,%d)",
			c["paging.xip.faults"], c["paging.xip.hits"], c["paging.xip.evictions"], c["paging.xip.segment_decodes"],
			stats.Faults, stats.Hits, stats.Evictions, stats.SegmentDecodes)
	}
	if stats.SegmentDecodes < stats.Faults {
		t.Errorf("%d segment decodes over %d faults: every fault enters a segment", stats.SegmentDecodes, stats.Faults)
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

// TestXIPCorruptPageMidExecution: a store page tampered after the run
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
	if !errors.Is(err, integrity.ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-execution corruption not typed: %v", err)
	}
}

// TestXIPUndecodablePageBehindValidCRC: a page whose bytes are garbage
// but whose CRC matches them (a colliding CRC) passes the fault and
// fails the segment decode with ErrCorrupt, never a panic. The bytes
// after the first unit of a multi-unit segment the run enters are
// overwritten, so the decode fails after one unit; the segment is
// rolled back, not left half-decoded, so a second Run of the same
// interpreter fails the same way instead of executing a partial table.
func TestXIPUndecodablePageBehindValidCRC(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	opt := XIPOptions{PageSize: 256}
	img, err := BuildXIP(obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	entered := map[int32]bool{}
	for _, off := range runFull(t, obj, true).trace {
		entered[off] = true
	}
	var victim segment
	var next int32
	for _, sg := range img.segs {
		if _, next, err = obj.decodeUnitIn(nil, obj.Code, sg.start, 0); err == nil && entered[sg.start] && next < sg.end {
			victim = sg
			break
		}
	}
	if victim.end == 0 {
		t.Fatal("no entered segment holds two units")
	}
	bad := img.StoreBytes()
	f := storeFrames(t, bad)[victim.page]
	payload := bad[f.start : f.end-integrity.ChecksumLen]
	for i := victim.local + next - victim.start; i < victim.local+victim.end-victim.start; i++ {
		payload[i] = 0xFF // escape bytes: the pattern id is out of range or never ends
	}
	binary.LittleEndian.PutUint32(bad[f.end-integrity.ChecksumLen:], integrity.Checksum(payload))
	img2, err := OpenXIPStore(obj, bad, opt)
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 1<<20, nil)
	if err := it.EnableXIP(img2, 2, 0); err != nil {
		t.Fatal(err)
	}
	_, err1 := it.Run(100_000)
	if !errors.Is(err1, ErrCorrupt) || !strings.Contains(err1.Error(), fmt.Sprintf("xip page %d", victim.page)) {
		t.Fatalf("undecodable page %d: got %v, want ErrCorrupt from its decode", victim.page, err1)
	}
	if _, err2 := it.Run(100_000); err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("second run: got %v, want %v", err2, err1)
	}
}

type frameRange struct{ start, end int }

// storeFrames parses a page store's header: per-page byte ranges of
// the sealed frames (page bytes + CRC trailer).
func storeFrames(t *testing.T, enc []byte) []frameRange {
	t.Helper()
	pos := 5 // magic + version
	uv := func() int {
		v, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			t.Fatal("bad store varint")
		}
		pos += n
		return int(v)
	}
	uv() // page size
	lens := make([]int, uv())
	for i := range lens {
		lens[i] = uv()
	}
	frames := make([]frameRange, 0, len(lens))
	for _, n := range lens {
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

// runEntry resets it, enters at pc with the return-address register
// set to ra, and runs under a step limit.
func runEntry(it *Interp, pc, ra int32, limit int64) modeRun {
	var r modeRun
	var out bytes.Buffer
	it.Reset()
	it.Out = &out
	it.PC = pc
	it.Regs[vm.RegRA] = ra
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

// TestInterpOffGridTrapsAcrossModes pins the entry contract: code is
// entered only at unit offsets, so a PC off the unit grid — entered
// directly, or reached mid-run by a return to an address no CALL
// produced — traps with ErrCorrupt. Whole-image and paged runs
// (one-page and unbounded budgets) must agree on the error text, the
// trace, and the counters. An Interp that ran whole-image and is then
// Reset into paged mode must match a fresh paged Interp exactly, fault
// count included: a paged run must never chain jumps through the
// earlier whole-image table.
func TestInterpOffGridTrapsAcrossModes(t *testing.T) {
	obj := xipObject(t, "loop", loopSrc, Options{})
	pre, err := obj.decodeImage()
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

	// Off-grid PCs: the first and last mid-unit offsets, the end of
	// code, and a negative offset.
	var mid []int32
	for off := int32(0); off < int32(len(obj.Code)); off++ {
		if pre.idx[off] < 0 {
			mid = append(mid, off)
		}
	}
	if len(mid) == 0 {
		t.Fatal("no mid-unit offset in the image")
	}
	bad := []int32{mid[0], mid[len(mid)-1], int32(len(obj.Code)), -4}

	// Entries: each bad PC entered directly (pc, 0), and each reached
	// by returning from step() to it (step's entry, bad).
	type entry struct{ pc, ra int32 }
	f := obj.Func("step")
	if f == nil {
		t.Fatal("no function step")
	}
	stepEntry := obj.Blocks[f.EntryBlock]
	var entries []entry
	for _, pc := range bad {
		entries = append(entries, entry{pc, 0}, entry{stepEntry, pc})
	}

	const limit = 2_000
	for _, e := range entries {
		label := fmt.Sprintf("entry %d ra %d", e.pc, e.ra)
		target := e.pc
		if e.pc == stepEntry {
			target = e.ra
		}
		want := runEntry(NewInterp(obj, 1<<20, nil), e.pc, e.ra, limit)
		if !errors.Is(want.err, ErrCorrupt) || want.err.Error() != offGrid(target).Error() {
			t.Fatalf("%s: err %v, want %v", label, want.err, offGrid(target))
		}
		if e.pc == stepEntry {
			if want.steps == 0 || len(want.trace) == 0 || want.trace[0] != stepEntry {
				t.Fatalf("%s: step() did not run before the trap: %d steps, trace %v", label, want.steps, want.trace)
			}
		} else if want.steps != 0 || want.units != 0 || len(want.trace) != 0 {
			t.Fatalf("%s: %d steps, %d units, trace %v before the trap", label, want.steps, want.units, want.trace)
		}
		for _, maxPages := range []int{1, 0} {
			it := NewInterp(obj, 1<<20, nil)
			if err := it.EnableXIP(img, maxPages, 0); err != nil {
				t.Fatal(err)
			}
			got := runEntry(it, e.pc, e.ra, limit)
			checkSameModeRun(t, fmt.Sprintf("%s paged cache=%d", label, maxPages), want, got)
		}
	}

	// Whole-image first, then Reset into paged mode on the same Interp.
	for _, e := range append([]entry{{0, 0}}, entries...) {
		label := fmt.Sprintf("reuse entry %d ra %d", e.pc, e.ra)
		fresh := NewInterp(obj, 1<<20, nil)
		if err := fresh.EnableXIP(img, 1, 0); err != nil {
			t.Fatal(err)
		}
		want := runEntry(fresh, e.pc, e.ra, limit)
		reused := NewInterp(obj, 1<<20, nil)
		runEntry(reused, e.pc, e.ra, limit)
		if err := reused.EnableXIP(img, 1, 0); err != nil {
			t.Fatal(err)
		}
		got := runEntry(reused, e.pc, e.ra, limit)
		checkSameModeRun(t, label, want, got)
		if got.faults != want.faults {
			t.Errorf("%s: %d faults, fresh paged Interp took %d", label, got.faults, want.faults)
		}
	}

	// At a one-page budget, returning from step() to a PC on another
	// page faults that page into the recycled table of the page step()
	// returned from. Pick an off-grid PC whose position in its page was
	// a unit start on that earlier page: the recycled index must not
	// keep the earlier page's entries, so the return still traps.
	segOf := func(off int32) *segment {
		for i := range img.segs {
			if s := &img.segs[i]; off >= s.start && off < s.end {
				return s
			}
		}
		t.Fatalf("offset %d in no segment", off)
		return nil
	}
	probe := runEntry(NewInterp(obj, 1<<20, nil), stepEntry, -4, limit)
	prev := segOf(probe.trace[len(probe.trace)-1]).page
	starts := map[int32]bool{}
	for _, u := range pre.units {
		if s := segOf(u.off); s.page == prev {
			starts[s.local+u.off-s.start] = true
		}
	}
	x := int32(-1)
	for off := int32(0); off < int32(len(obj.Code)) && x < 0; off++ {
		if s := segOf(off); pre.idx[off] < 0 && s.page != prev && starts[s.local+off-s.start] {
			x = off
		}
	}
	if x < 0 {
		t.Fatalf("no off-grid offset lines up with a unit start of page %d", prev)
	}
	want := runEntry(NewInterp(obj, 1<<20, nil), stepEntry, x, limit)
	if want.err == nil || want.err.Error() != offGrid(x).Error() {
		t.Fatalf("return to %d: whole-image err %v, want %v", x, want.err, offGrid(x))
	}
	it := NewInterp(obj, 1<<20, nil)
	if err := it.EnableXIP(img, 1, 0); err != nil {
		t.Fatal(err)
	}
	xPage := segOf(x).page
	var recycled *xipPage
	it.XIPFault = func(p int32) {
		if p == xPage {
			recycled = it.xip.pages[prev]
		}
	}
	got := runEntry(it, stepEntry, x, limit)
	checkSameModeRun(t, fmt.Sprintf("recycled return to %d", x), want, got)
	if recycled == nil || it.xip.pages[xPage] != recycled {
		t.Errorf("page %d was not decoded into page %d's recycled table", xPage, prev)
	}
}

// TestXIPRecycledPageTables: at a one-page budget every fault after
// the first decodes into the table of the page it evicts, so a single
// table serves the whole run. Over every kernel and wep, the seq and
// profile-driven layouts, and 256- and 512-byte pages, the paged run
// must match the whole-image run unit for unit. The kernels fit in one
// page of either size, so 64-byte pages make them fault too.
func TestXIPRecycledPageTables(t *testing.T) {
	srcs := map[string]string{"wep": workload.Generate(workload.Wep)}
	for name, src := range workload.Kernels() {
		srcs[name] = src
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			obj := xipObject(t, name, src, Options{})
			// Long-running kernels are compared on a bounded prefix.
			const cap = 100_000
			want := runFull(t, obj, true, cap)
			recycled := false
			for _, layout := range []struct {
				name   string
				counts map[int32]int64
			}{
				{"seq", nil},
				{"hot", traceBlockCounts(want.trace, obj)},
			} {
				for _, pageSize := range []int{64, 256, 512} {
					label := fmt.Sprintf("%s page=%d", layout.name, pageSize)
					img, err := BuildXIP(obj, XIPOptions{PageSize: pageSize, BlockCounts: layout.counts})
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					it := NewInterp(obj, 1<<20, &out)
					if err := it.EnableXIP(img, 1, 0); err != nil {
						t.Fatal(err)
					}
					var got runResult
					it.Trace = func(off int32) { got.trace = append(got.trace, off) }
					tables := map[*xipPage]bool{}
					it.XIPFault = func(int32) {
						if pg := it.xip.mru; pg != nil {
							tables[pg] = true
						}
					}
					code, err := it.Run(cap)
					if err != nil && !errors.Is(err, ErrOutOfSteps) {
						t.Fatalf("%s: paged run: %v", label, err)
					}
					got.code, got.out, got.steps, got.units = code, out.String(), it.Steps, it.Units
					checkSameRun(t, label, want, got)
					if !int32SlicesEqual(want.trace, got.trace) {
						t.Errorf("%s: unit trace diverged (len %d vs %d)", label, len(want.trace), len(got.trace))
					}
					tables[it.xip.mru] = true
					faults := it.XIPStats().Faults
					if len(tables) != 1 || it.xip.free != nil {
						t.Errorf("%s: %d page tables served %d faults, want 1", label, len(tables), faults)
					}
					recycled = recycled || faults > 1
				}
			}
			if !recycled {
				t.Error("no configuration faulted more than once")
			}
		})
	}
}

// TestXIPWarmRunAllocs pins the allocation-free fault path: a warm
// Reset+Run of wep at a one-page budget faults dozens of times, and
// every fault reuses a recycled table, so the run allocates a
// small fixed number of times rather than once or more per fault.
func TestXIPWarmRunAllocs(t *testing.T) {
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	img, err := BuildXIP(obj, XIPOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	it := NewInterp(obj, 0, io.Discard)
	if err := it.EnableXIP(img, 1, 0); err != nil {
		t.Fatal(err)
	}
	run := func() {
		it.Reset()
		if _, err := it.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	faults := it.XIPStats().Faults
	if faults < 50 {
		t.Fatalf("%d faults per run, want at least 50", faults)
	}
	const maxAllocs = 4
	if n := testing.AllocsPerRun(10, run); n > maxAllocs {
		t.Errorf("warm paged run allocates %v times over %d faults, want at most %d", n, faults, maxAllocs)
	}
}

// TestXIPCountersPinned pins the paged interpreter's cache counters,
// step counts and output on the benchmark's programs (wep, four of the
// hot-loop kernels and the seed-103 lcc sweep of cold-start) at the
// default page size and page budgets of 1, 8 and 64, so that a change
// to how a fault or a page's decode works cannot move when pages
// fault, hit or leave the cache. Hits counts the resolves that find
// their page resident, so it also pins that fall-through between the
// segments of one page stays chained and costs no hit.
func TestXIPCountersPinned(t *testing.T) {
	type pin struct {
		faults, hits, evictions int64
	}
	sweep := workload.Lcc
	sweep.Seed = rand.New(rand.NewSource(103)).Int63()
	sweep.MainSweep, sweep.MainRounds = true, 1
	k := workload.Kernels()
	progs := []struct {
		name, src string
		code      int32
		steps     int64
		out       string // SHA-256 prefix of the output
		pins      [3]pin // at budgets 1, 8 and 64
	}{
		{"wep", workload.Generate(workload.Wep), 0, 4583, "c48d5f9b5ddf", [3]pin{{314, 184, 313}, {16, 482, 8}, {13, 485, 0}}},
		{"fib", k["fib"], 0, 2400792, "c881eac91974", [3]pin{{1, 375124, 0}, {1, 375124, 0}, {1, 375124, 0}}},
		{"sieve", k["sieve"], 0, 8274336, "81030ed6847b", [3]pin{{1, 865243, 0}, {1, 865243, 0}, {1, 865243, 0}}},
		{"matmul", k["matmul"], 0, 1552908, "e1cf1bd20c61", [3]pin{{1, 55964, 0}, {1, 55964, 0}, {1, 55964, 0}}},
		{"qsortk", k["qsortk"], 0, 5543726, "2e32ca98f02c", [3]pin{{27, 311475, 26}, {2, 311500, 0}, {2, 311500, 0}}},
		{"lcc-sweep-103", workload.Generate(sweep), 0, 44171, "2a639118ea6f", [3]pin{{851, 2594, 850}, {124, 3321, 116}, {85, 3360, 21}}},
	}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			obj := xipObject(t, p.name, p.src, Options{})
			for i, budget := range []int{1, 8, 64} {
				got, stats := runXIP(t, obj, XIPOptions{}, budget, 0, false)
				sum := sha256.Sum256([]byte(got.out))
				if got.code != p.code || got.steps != p.steps || hex.EncodeToString(sum[:6]) != p.out {
					t.Errorf("budget %d: exit %d, %d steps, output %x; want %d, %d, %s",
						budget, got.code, got.steps, sum[:6], p.code, p.steps, p.out)
				}
				if g := (pin{stats.Faults, stats.Hits, stats.Evictions}); g != p.pins[i] {
					t.Errorf("budget %d: faults/hits/evictions %v, want %v", budget, g, p.pins[i])
				}
			}
		})
	}
}
