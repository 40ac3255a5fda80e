package paging

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/flatezip"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Store is a compressed code-page image: the backing representation
// behind the paper's paging scenario, where evicted code pages are
// kept compressed and re-expanded on fault. Each page is sealed with a
// CRC32C trailer so a damaged image surfaces a typed error on the
// faulting path instead of feeding garbage to the interpreter.
//
// Layout: "PGS1" | version(1) | uvarint pageSize | uvarint nPages |
// uvarint lastPageLen | frames, where each frame is
// uvarint compLen | flatezip page | CRC32C(compressed page).
type Store struct {
	pageSize    int
	lastPageLen int // byte length of the final (possibly short) page
	pages       [][]byte
	rec         *telemetry.Recorder
}

// SetRecorder attaches a telemetry recorder: every fault then counts
// paging.crc_checks, paging.pages_loaded, and paging.bytes_decompressed,
// and a corrupt page counts paging.corrupt and trips the flight
// recorder. Nil (the default) keeps the fault path untouched.
func (s *Store) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

var storeMagic = [4]byte{'P', 'G', 'S', '1'}

const storeVersion = 1

// Typed failure taxonomy for the page store, aliased onto the shared
// integrity kinds (and matching ErrCorrupt for back-compat callers).
var (
	ErrCorrupt   = integrity.Alias("paging: corrupt page image", integrity.ErrCorrupt)
	ErrTruncated = integrity.Alias("paging: truncated page image", integrity.ErrTruncated, ErrCorrupt)
	ErrVersion   = integrity.Alias("paging: unsupported page image version", integrity.ErrVersion, ErrCorrupt)
	ErrTooLarge  = integrity.Alias("paging: declared page size exceeds cap", integrity.ErrTooLarge, ErrCorrupt)
)

// MaxPageBytes caps the page size a store image may declare; a header
// asking for more is rejected before any page is decompressed.
var MaxPageBytes uint64 = 1 << 24

// NewStore splits image into pageSize pages, compressing and sealing
// each one. pageSize <= 0 selects the 4096-byte default. Frames carry
// their CRC trailer from construction, so Page works identically on a
// freshly built store and on one reopened from its serialized form —
// the execute-in-place path faults pages out of both.
func NewStore(image []byte, pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = 4096
	}
	s := &Store{pageSize: pageSize, lastPageLen: pageSize}
	for off := 0; off < len(image); off += pageSize {
		end := off + pageSize
		if end > len(image) {
			end = len(image)
		}
		comp := flatezip.Compress(image[off:end])
		s.pages = append(s.pages, integrity.AppendChecksum(comp, comp))
		s.lastPageLen = end - off
	}
	if len(image) == 0 {
		s.lastPageLen = 0
	}
	return s
}

// NumPages reports the page count.
func (s *Store) NumPages() int { return len(s.pages) }

// PageSize reports the page granularity in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Encode serializes the store. Frames are stored sealed (payload +
// CRC32C trailer), so they are emitted verbatim; the on-disk layout is
// unchanged from when the trailer was appended at encode time.
func (s *Store) Encode() []byte {
	out := append([]byte(nil), storeMagic[:]...)
	out = append(out, storeVersion)
	out = binary.AppendUvarint(out, uint64(s.pageSize))
	out = binary.AppendUvarint(out, uint64(len(s.pages)))
	out = binary.AppendUvarint(out, uint64(s.lastPageLen))
	for _, p := range s.pages {
		out = binary.AppendUvarint(out, uint64(len(p)-integrity.ChecksumLen))
		out = append(out, p...)
	}
	return out
}

// OpenStore parses a serialized page image, verifying structure before
// any page data is trusted. Page payloads are verified lazily, per
// page, on Page — the store exists so that only faulted pages pay for
// decompression.
func OpenStore(data []byte) (*Store, error) {
	if len(data) < len(storeMagic)+1 {
		return nil, fmt.Errorf("%w: short header", ErrTruncated)
	}
	if !bytes.Equal(data[:4], storeMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != storeVersion {
		return nil, fmt.Errorf("%w: version %d (decoder speaks %d)", ErrVersion, data[4], storeVersion)
	}
	pos := 5
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		pos += n
		return v, nil
	}
	pageSize, err := uv("page size")
	if err != nil {
		return nil, err
	}
	if pageSize == 0 || pageSize > MaxPageBytes {
		return nil, fmt.Errorf("%w: page size %d (cap %d)", ErrTooLarge, pageSize, MaxPageBytes)
	}
	nPages, err := uv("page count")
	if err != nil {
		return nil, err
	}
	// Every page needs at least its length varint and CRC in the file.
	if nPages > uint64(len(data)) {
		return nil, fmt.Errorf("%w: page count %d", ErrCorrupt, nPages)
	}
	lastLen, err := uv("last page length")
	if err != nil {
		return nil, err
	}
	if lastLen > pageSize || (nPages > 0 && lastLen == 0) {
		return nil, fmt.Errorf("%w: last page length %d of %d", ErrCorrupt, lastLen, pageSize)
	}
	s := &Store{pageSize: int(pageSize), lastPageLen: int(lastLen)}
	for i := uint64(0); i < nPages; i++ {
		n, err := uv(fmt.Sprintf("page %d length", i))
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: page %d length %d", ErrCorrupt, i, n)
		}
		end := pos + int(n) + integrity.ChecksumLen
		if end > len(data) {
			return nil, fmt.Errorf("%w: page %d body", ErrTruncated, i)
		}
		s.pages = append(s.pages, data[pos:end])
		pos = end
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
	}
	return s, nil
}

// Page verifies and decompresses page i into a fresh slice. The CRC
// trailer is checked before entropy decode, and the expansion is
// bounded by the declared page size — a page that inflates past it is
// rejected as corrupt. The store holds no mutable state, so one Store
// may serve Page calls from many goroutines; caching decoded pages is
// the caller's business (the XIP executor keeps its own LRU).
func (s *Store) Page(i int) ([]byte, error) {
	sp := s.rec.StartSpan("paging.page", telemetry.Int("page", int64(i)))
	defer sp.End()
	if i < 0 || i >= len(s.pages) {
		return nil, s.corrupt(fmt.Errorf("%w: page %d of %d", ErrCorrupt, i, len(s.pages)))
	}
	s.rec.Add("paging.crc_checks", 1)
	comp, err := integrity.SplitChecksum(s.pages[i], fmt.Sprintf("page %d", i))
	if err != nil {
		return nil, s.corrupt(retag(err))
	}
	want := s.pageSize
	if i == len(s.pages)-1 {
		want = s.lastPageLen
	}
	page, err := flatezip.DecompressLimit(comp, uint64(want))
	if err != nil {
		return nil, s.corrupt(fmt.Errorf("%w: page %d: %v", ErrCorrupt, i, err))
	}
	if len(page) != want {
		return nil, s.corrupt(fmt.Errorf("%w: page %d is %d bytes, want %d", ErrCorrupt, i, len(page), want))
	}
	sp.SetAttr(
		telemetry.Int("bytes_in", int64(len(comp))),
		telemetry.Int("bytes_out", int64(len(page))))
	s.rec.Add("paging.pages_loaded", 1)
	s.rec.Add("paging.bytes_decompressed", int64(len(page)))
	return page, nil
}

// corrupt counts a fault-path failure and trips the flight recorder so
// the page faults leading up to the corruption are preserved.
func (s *Store) corrupt(err error) error {
	if s.rec.Enabled() {
		s.rec.Add("paging.corrupt", 1)
		s.rec.Trip("paging: " + err.Error())
	}
	return err
}

// retag maps integrity-layer errors onto the package taxonomy.
func retag(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, integrity.ErrTruncated):
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	case errors.Is(err, integrity.ErrTooLarge):
		return fmt.Errorf("%w: %v", ErrTooLarge, err)
	case errors.Is(err, integrity.ErrVersion):
		return fmt.Errorf("%w: %v", ErrVersion, err)
	default:
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}
