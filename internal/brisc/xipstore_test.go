package brisc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/integrity"
	"repro/internal/workload"
)

// storeFixture builds a wep page store at 256-byte pages.
func storeFixture(t testing.TB) (*Object, *XIPImage, XIPOptions) {
	t.Helper()
	obj := xipObject(t, "wep", workload.Generate(workload.Wep), Options{})
	return buildStore(t, obj, XIPOptions{PageSize: 256})
}

// smallStore builds the fib kernel's page store at 64-byte pages,
// small enough to mutate at every byte.
func smallStore(t testing.TB) (*Object, *XIPImage, XIPOptions) {
	t.Helper()
	obj := xipObject(t, "fib", workload.Kernels()["fib"], Options{})
	return buildStore(t, obj, XIPOptions{PageSize: 64})
}

func buildStore(t testing.TB, obj *Object, opt XIPOptions) (*Object, *XIPImage, XIPOptions) {
	t.Helper()
	img, err := BuildXIP(obj, opt)
	if err != nil {
		t.Fatal(err)
	}
	return obj, img, opt
}

// wantPage is page p's expected content: its segments' code bytes in
// layout order.
func wantPage(img *XIPImage, p int) []byte {
	var out []byte
	for _, si := range img.pageSegs[p] {
		s := &img.segs[si]
		out = append(out, img.obj.Code[s.start:s.end]...)
	}
	return out
}

// hotCounts profiles one full run of obj into per-block counts.
func hotCounts(t testing.TB, obj *Object) map[int32]int64 {
	t.Helper()
	counts := map[int32]int64{}
	it := NewInterp(obj, 0, io.Discard)
	it.Trace = func(off int32) { counts[off]++ }
	if _, err := it.Run(0); err != nil {
		t.Fatal(err)
	}
	return BlockCountsFromTrace(obj, counts)
}

func TestXIPStoreRoundTrip(t *testing.T) {
	obj, img, opt := storeFixture(t)
	enc := img.StoreBytes()
	r, err := OpenXIPStore(obj, enc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != img.NumPages() || r.PageSize() != img.PageSize() {
		t.Fatalf("reopened store: %d pages of %d, want %d of %d", r.NumPages(), r.PageSize(), img.NumPages(), img.PageSize())
	}
	if !bytes.Equal(r.StoreBytes(), enc) {
		t.Fatal("reopened store serializes differently")
	}
	for p := 0; p < r.NumPages(); p++ {
		got, err := r.Store().Page(p)
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if !bytes.Equal(got, wantPage(img, p)) {
			t.Fatalf("page %d differs from its segments' code bytes", p)
		}
	}
}

func TestXIPStoreEmptyImage(t *testing.T) {
	obj := &Object{}
	img, err := BuildXIP(obj, XIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenXIPStore(obj, img.StoreBytes(), XIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 0 {
		t.Fatalf("empty image has %d pages", r.NumPages())
	}
}

// TestXIPStoreCorruptPage flips every byte of a small store in turn.
// Every header field is checked against the layout and every page
// carries a CRC, so each flip is caught: either the open fails, or
// exactly the page whose frame holds the flipped byte fails, typed,
// while every other page stays readable.
func TestXIPStoreCorruptPage(t *testing.T) {
	obj, img, opt := smallStore(t)
	enc := img.StoreBytes()
	frames := storeFrames(t, enc)
	if len(frames) < 2 {
		t.Fatalf("want several pages, got %d", len(frames))
	}
	for off := range enc {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		r, err := OpenXIPStore(obj, bad, opt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d: untyped open error: %v", off, err)
			}
			if off >= frames[0].start {
				t.Fatalf("offset %d: flip inside page frames failed the open: %v", off, err)
			}
			continue
		}
		if off < frames[0].start {
			t.Fatalf("offset %d: header flip accepted", off)
		}
		for p, f := range frames {
			_, err := r.Store().Page(p)
			inFrame := off >= f.start && off < f.end
			switch {
			case inFrame && err == nil:
				t.Fatalf("offset %d: page %d read clean", off, p)
			case inFrame && (!errors.Is(err, ErrCorrupt) || !errors.Is(err, integrity.ErrCorrupt)):
				t.Fatalf("offset %d page %d: error outside the taxonomy: %v", off, p, err)
			case !inFrame && err != nil:
				t.Fatalf("offset %d: untouched page %d failed: %v", off, p, err)
			}
		}
	}
}

// TestXIPStoreTruncated cuts the store at every length: the exact
// total-length check rejects each cut at open, typed.
func TestXIPStoreTruncated(t *testing.T) {
	obj, img, opt := smallStore(t)
	enc := img.StoreBytes()
	for cut := 0; cut < len(enc); cut++ {
		_, err := OpenXIPStore(obj, enc[:cut], opt)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

// TestXIPStoreVersionRejected: a version-1 (per-page flatezip) store
// no longer opens.
func TestXIPStoreVersionRejected(t *testing.T) {
	obj, img, opt := storeFixture(t)
	enc := img.StoreBytes()
	enc[4] = 1
	_, err := OpenXIPStore(obj, enc, opt)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1 accepted: %v", err)
	}
	if !errors.Is(err, integrity.ErrVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version error misses taxonomy aliases: %v", err)
	}
}

// TestXIPStoreHugePageSize: a header declaring a 4 GiB page size is
// rejected against the layout before anything is sized from it.
func TestXIPStoreHugePageSize(t *testing.T) {
	obj, img, opt := storeFixture(t)
	enc := img.StoreBytes()
	// 256 encodes as a two-byte varint at offset 5; splice a 5-byte
	// maximal varint in its place.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	bad := append(append(append([]byte(nil), enc[:5]...), huge...), enc[7:]...)
	if _, err := OpenXIPStore(obj, bad, opt); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("4 GiB page size accepted: %v", err)
	}
}

func TestXIPStorePageOutOfRange(t *testing.T) {
	_, img, _ := storeFixture(t)
	st := img.Store()
	if _, err := st.Page(-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("page -1: %v", err)
	}
	if _, err := st.Page(img.NumPages()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("page %d: %v", img.NumPages(), err)
	}
}

// TestXIPStoreConcurrentPages: one store serves concurrent faults (one
// XIP image is shared by many interpreters) with every page matching
// its segments' code bytes (run with -race in make check).
func TestXIPStoreConcurrentPages(t *testing.T) {
	const workers, reads = 8, 400
	obj, img, opt := storeFixture(t)
	r, err := OpenXIPStore(obj, img.StoreBytes(), opt)
	if err != nil {
		t.Fatal(err)
	}
	st, pages := r.Store(), r.NumPages()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				pg := (g*7 + i*3) % pages
				p, err := st.Page(pg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p, wantPage(img, pg)) {
					errs <- errors.New("page content diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestXIPStoreOverhead: a page store is the object's code bytes, its
// header, and one CRC per page — nothing else — and every segment sits
// in its page verbatim.
func TestXIPStoreOverhead(t *testing.T) {
	for _, p := range []workload.Profile{workload.Lcc, workload.Gcc, workload.Wep} {
		if testing.Short() && p.Name != workload.Wep.Name {
			continue
		}
		obj := xipObject(t, p.Name, workload.Generate(p), Options{})
		type layout struct {
			name string
			opt  XIPOptions
		}
		layouts := []layout{{"256", XIPOptions{PageSize: 256}}, {"512", XIPOptions{PageSize: 512}}}
		if p.Name == workload.Wep.Name {
			layouts = append(layouts, layout{"hot256", XIPOptions{PageSize: 256, BlockCounts: hotCounts(t, obj)}})
		}
		for _, l := range layouts {
			img, err := BuildXIP(obj, l.opt)
			if err != nil {
				t.Fatal(err)
			}
			header := len(storeMagic) + 1
			for _, v := range img.storeHeader() {
				header += len(binary.AppendUvarint(nil, uint64(v)))
			}
			size := len(img.StoreBytes())
			if want := len(obj.Code) + header + img.NumPages()*integrity.ChecksumLen; size != want {
				t.Errorf("%s/%s: store is %d bytes, want code %d + header %d + %d CRCs = %d",
					p.Name, l.name, size, len(obj.Code), header, img.NumPages(), want)
			}
			t.Logf("%s/%s: %d pages, store/code %.3f", p.Name, l.name, img.NumPages(), float64(size)/float64(len(obj.Code)))
			for pg := 0; pg < img.NumPages(); pg++ {
				raw, err := img.Store().Page(pg)
				if err != nil {
					t.Fatalf("%s/%s page %d: %v", p.Name, l.name, pg, err)
				}
				if len(raw) != int(img.pageLen[pg]) {
					t.Fatalf("%s/%s page %d: %d bytes, layout says %d", p.Name, l.name, pg, len(raw), img.pageLen[pg])
				}
				for _, si := range img.pageSegs[pg] {
					s := &img.segs[si]
					if !bytes.Equal(raw[s.local:s.local+s.end-s.start], obj.Code[s.start:s.end]) {
						t.Fatalf("%s/%s: segment at %d differs in page %d", p.Name, l.name, s.start, pg)
					}
				}
			}
		}
	}
}
