// Package wire implements the paper's wire-format code compressor (§3):
//
//  1. compile the program into trees (package cc/ir),
//  2. patternize: split the tree forest into one operator stream
//     (tree shapes with all literals wildcarded) and one literal
//     stream per operator that carries a literal,
//  3. move-to-front code each stream in isolation,
//  4. Huffman-code all MTF indices (but no MTF tables),
//  5. compress the serialized streams with the LZ stage (flatezip,
//     this repository's gzip stand-in).
//
// Decompression reverses every stage and reconstructs a structurally
// identical ir.Module. Options expose each stage for the ablation
// benchmarks (MTF off, Huffman off, or an arithmetic-coder final stage
// instead of LZ — the design-space alternatives from §2).
//
// Because each stream is MTF+Huffman-coded in isolation, the container
// stores every stream as an independent byte-aligned segment. The
// encoder fans the per-stream work across a bounded worker pool
// (internal/parallel) with an ordered fan-in, so the output is
// byte-identical for every Options.Workers setting. The decoder reads
// the segments in order on the caller's goroutine: a client pays for
// the CPU time of every thread it runs, and handing a few small
// streams to other goroutines only added to that.
//
// The package writes two formats from one codec (codec.go): WIR2, the
// monolithic object above, and WIRX (indexed.go), the paper's
// function-at-a-time variant, which moves the Huffman tables into a
// shared header so each function's chunk decodes on its own. Inspect
// attributes WIR2 bytes with the same readers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// FinalCoder selects the last compression stage.
type FinalCoder uint8

// Final-stage choices.
const (
	FinalLZ    FinalCoder = iota // flatezip (the paper's gzip stage)
	FinalArith                   // order-1 adaptive arithmetic coder
	FinalNone                    // no final stage (for ablation)
)

// Options configures the pipeline for ablation studies; the zero value
// is the paper's configuration.
type Options struct {
	NoMTF     bool       // skip move-to-front, Huffman-code raw symbols
	NoHuffman bool       // emit MTF indices as varints instead
	Final     FinalCoder // last stage

	// Workers bounds the per-stream encode fan-out: 0 means one worker
	// per CPU (GOMAXPROCS), 1 forces the serial path. The knob never
	// changes the artifact — compressed bytes are identical for every
	// worker count (enforced by the determinism test suite). Decoding
	// is always serial.
	Workers int
	// Pool, when non-nil, supplies an externally shared bounded worker
	// pool (batch mode) for encoding and takes precedence over Workers.
	Pool *parallel.Pool
}

// pool resolves the runtime concurrency knobs into a worker pool; nil
// means "run serially on the caller".
func (opt Options) pool(rec *telemetry.Recorder) *parallel.Pool {
	if opt.Pool != nil {
		return opt.Pool
	}
	if w := parallel.DefaultWorkers(opt.Workers); w > 1 {
		return parallel.NewTraced(w, rec)
	}
	return nil
}

var magic = [4]byte{'W', 'I', 'R', '2'}

// formatVersion is the container format revision written after the
// magic. Version 2 added the declared-size header, the whole-file
// CRC32C trailer, and per-segment CRC32C trailers.
const formatVersion = 2

// Error taxonomy for malformed wire objects. All of these match
// ErrCorrupt (and their integrity.* kind) under errors.Is, so callers
// can test broadly or narrowly.
var (
	// ErrCorrupt reports a malformed wire object.
	ErrCorrupt = integrity.Alias("wire: corrupt input", integrity.ErrCorrupt)
	// ErrTruncated reports input that ends before its declared structure.
	ErrTruncated = integrity.Alias("wire: truncated input", integrity.ErrTruncated, ErrCorrupt)
	// ErrVersion reports a container version this decoder does not speak.
	ErrVersion = integrity.Alias("wire: unsupported format version", integrity.ErrVersion, ErrCorrupt)
	// ErrTooLarge reports a declared size above the configured cap; the
	// decoder refused before allocating.
	ErrTooLarge = integrity.Alias("wire: declared size exceeds cap", integrity.ErrTooLarge, ErrCorrupt)
)

// MaxContainerBytes caps the declared (decompressed) container size a
// decoder will honor, guarding against decompression bombs: the check
// runs before the final-stage output buffer is allocated. 0 disables
// the cap.
var MaxContainerBytes uint64 = 1 << 30

// litOps returns the literal-carrying opcodes in canonical opcode
// order. Every per-opcode stream map on the encode or decode path must
// be walked through this list (never by map range) so that map
// iteration order — and therefore goroutine scheduling in the encode
// fan-out — can never leak into the output bytes.
var (
	litOpsOnce sync.Once
	litOpsList []ir.Op
)

func litOps() []ir.Op {
	litOpsOnce.Do(func() {
		for op := ir.Op(1); int(op) < ir.NumOps; op++ {
			if op.Lit() != ir.LitNone {
				litOpsList = append(litOpsList, op)
			}
		}
	})
	return litOpsList
}

// Compress encodes a module with the paper's default pipeline.
func Compress(m *ir.Module) ([]byte, error) { return CompressOpts(m, Options{}) }

// CompressOpts encodes a module with an explicit pipeline configuration.
func CompressOpts(m *ir.Module, opt Options) ([]byte, error) {
	return CompressTraced(m, opt, nil)
}

// CompressTraced encodes a module, reporting per-stage spans and byte
// deltas into rec (nil disables telemetry at no cost).
func CompressTraced(m *ir.Module, opt Options, rec *telemetry.Recorder) ([]byte, error) {
	_, out, err := MeasureTraced(m, opt, rec)
	return out, err
}

// finalize frames a WIR2 container — prefix, declared container size,
// the final-coded container — and seals the whole file with a CRC32C
// trailer.
func finalize(container []byte, opt Options, rec *telemetry.Recorder) ([]byte, error) {
	sp := rec.StartSpan("wire.final", telemetry.Int("bytes_in", int64(len(container))))
	defer sp.End()
	out := appendPrefix(nil, magic, opt)
	out = appendUv(out, uint64(len(container)))
	out, err := appendFinal(out, container, opt.Final)
	if err != nil {
		return nil, err
	}
	sealed := integrity.AppendChecksum(out, out)
	sp.SetAttr(telemetry.Int("bytes_out", int64(len(sealed))))
	return sealed, nil
}

// openContainer reverses finalize: it checks the prefix, verifies the
// whole-file checksum before any entropy decoding, and undoes the final
// stage under the declared-size cap.
func openContainer(data []byte, rec *telemetry.Recorder) (Options, []byte, error) {
	opt, err := readPrefix(data, magic)
	if err != nil {
		return opt, nil, err
	}
	body, err := integrity.SplitChecksum(data, "wire object")
	if err != nil {
		return opt, nil, retag(err)
	}
	if len(body) < prefixLen {
		return opt, nil, fmt.Errorf("%w: short header", ErrTruncated)
	}
	declared, nsz := binary.Uvarint(body[prefixLen:])
	if nsz <= 0 {
		return opt, nil, fmt.Errorf("%w: container size header", ErrCorrupt)
	}
	container, err := unfinal(body[prefixLen+nsz:], opt.Final, declared, rec)
	return opt, container, err
}

// Decompress reconstructs the module from a wire object.
func Decompress(data []byte) (*ir.Module, error) { return DecompressTraced(data, nil) }

// DecompressTraced reconstructs the module, reporting stage spans into
// rec (nil disables telemetry).
func DecompressTraced(data []byte, rec *telemetry.Recorder) (*ir.Module, error) {
	// A nil or disabled recorder must not pay for the attributes.
	var sp *telemetry.Span
	if rec.Enabled() {
		sp = rec.StartSpan("wire.decompress", telemetry.Int("bytes_in", int64(len(data))))
	}
	defer sp.End()
	opt, container, err := openContainer(data, rec)
	if err != nil {
		return nil, err
	}
	psp := rec.StartSpan("wire.parse")
	m, err := parseContainer(container, opt, rec)
	psp.End()
	if m != nil && sp != nil {
		sp.SetAttr(telemetry.Int("trees", int64(m.NumTrees())))
	}
	return m, err
}

// retag maps an integrity-layer error onto this package's taxonomy so
// callers can match either family under errors.Is.
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

// Stats describes the size contribution of each pipeline stage.
type Stats struct {
	Trees          int // statement trees encoded
	Shapes         int // distinct tree shapes (operator patterns)
	OperatorBytes  int // shape-stream bytes before the final stage
	LiteralBytes   int // literal-stream bytes before the final stage
	MetadataBytes  int // names, globals, function headers
	ContainerBytes int // total container before the final stage
	FinalBytes     int // the compressed object (including header)
}

// MeasureTraced compresses once, reporting per-stage sizes and spans.
// It returns the stats and the finished wire object, so callers that
// want both never encode twice.
func MeasureTraced(m *ir.Module, opt Options, rec *telemetry.Recorder) (Stats, []byte, error) {
	sp := rec.StartSpan("wire.compress")
	defer sp.End()
	if err := m.Validate(); err != nil {
		return Stats{}, nil, fmt.Errorf("wire: %w", err)
	}
	st, container, err := encodeContainer(m, opt, rec)
	if err != nil {
		return Stats{}, nil, err
	}
	full, err := finalize(container, opt, rec)
	if err != nil {
		return Stats{}, nil, err
	}
	st.ContainerBytes = len(container)
	st.FinalBytes = len(full)
	sp.SetAttr(telemetry.Int("container_bytes", int64(len(container))),
		telemetry.Int("final_bytes", int64(len(full))))
	return st, full, nil
}

// ---- container encoding ----

// encodeContainer lays out a WIR2 container: the metadata section, the
// operators section (shape table, then the shape-stream segment), and
// the literals section (each literal stream's count, then its segment).
func encodeContainer(m *ir.Module, opt Options, rec *telemetry.Recorder) (Stats, []byte, error) {
	var st Stats
	var bw bitio.Writer

	msp := rec.StartSpan("wire.metadata")
	writeModuleHeader(&bw, m)
	st.MetadataBytes = len(bw.Bytes())
	msp.SetAttr(telemetry.Int("bytes", int64(st.MetadataBytes)))
	msp.End()

	// Patternize is a serial fold over the forest; the expensive entropy
	// coding below is what fans out.
	psp := rec.StartSpan("wire.patternize")
	p, err := patternize(m)
	if err != nil {
		psp.End()
		return st, nil, err
	}
	st.Trees = len(p.shapeStream)
	st.Shapes = len(p.shapes)
	psp.SetAttr(telemetry.Int("trees", int64(st.Trees)),
		telemetry.Int("shapes", int64(st.Shapes)))
	psp.End()

	// Entropy-code every symbol stream concurrently. Job order is
	// canonical — index 0 is the shape stream, then the literal streams
	// in opcode order — and the fan-in is ordered, so the assembled
	// container is byte-identical to the serial path.
	n := numStreams()
	ssp := rec.StartSpan("wire.encode_streams", telemetry.Int("streams", int64(n)))
	segs := make([][]byte, n)
	err = opt.pool(rec).ForEachSpan("wire.stream", n, func(i int, wsp *telemetry.Span) error {
		stream := p.stream(i)
		if len(stream) == 0 {
			return nil
		}
		// Per-segment span attributes: raw symbol payload in, coded
		// segment out.
		wsp.SetAttr(telemetry.Int("symbols", int64(len(stream))))
		seg, serr := encodeSegment(stream, opt)
		if serr != nil {
			return serr
		}
		wsp.SetAttr(
			telemetry.Int("raw_bytes", int64(4*len(stream))),
			telemetry.Int("coded_bytes", int64(len(seg))))
		segs[i] = seg
		return nil
	})
	if err != nil {
		ssp.End()
		return st, nil, err
	}
	var codedTotal int64
	for _, seg := range segs {
		codedTotal += int64(len(seg))
	}
	ssp.SetAttr(telemetry.Int("coded_bytes", codedTotal))
	ssp.End()

	osp := rec.StartSpan("wire.operators")
	writeShapeTable(&bw, p.shapes)
	writeSegment(&bw, segs[0])
	st.OperatorBytes = len(bw.Bytes()) - st.MetadataBytes
	osp.SetAttr(telemetry.Int("bytes", int64(st.OperatorBytes)))
	osp.End()

	lsp := rec.StartSpan("wire.literals")
	litStart := len(bw.Bytes())
	for j := 1; j < n; j++ {
		count := len(p.stream(j))
		writeUvarint(&bw, uint64(count))
		if count > 0 {
			writeSegment(&bw, segs[j])
		}
	}
	container := bw.Bytes()
	st.LiteralBytes = len(container) - litStart
	lsp.SetAttr(telemetry.Int("bytes", int64(st.LiteralBytes)))
	lsp.End()
	return st, container, nil
}

// writeSegment frames one coded stream segment with its byte length so
// the decoder can slice all segments out up front, before it
// entropy-decodes any. A CRC32C trailer follows the bytes (not counted
// in the length) so each segment is verified before it is
// entropy-decoded. Segments begin byte-aligned,
// so both writes take the Writer's bulk-append path.
func writeSegment(bw *bitio.Writer, seg []byte) {
	writeUvarint(bw, uint64(len(seg)))
	bw.WriteBytes(seg)
	var crc [integrity.ChecksumLen]byte
	binary.LittleEndian.PutUint32(crc[:], integrity.Checksum(seg))
	bw.WriteBytes(crc[:])
}

// encodeSegment codes one stream into a standalone byte-aligned WIR2
// segment whose Huffman table, built from the stream's own symbols,
// travels in-band.
func encodeSegment(stream []int32, opt Options) ([]byte, error) {
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	s.bw.Reset()
	s.moveToFront(stream, opt.NoMTF)
	var code *huffman.Code
	if !opt.NoHuffman {
		s.freqs = addFreqs(s.freqs[:0], s.symbols)
		var err error
		if code, err = huffman.Build(s.freqs, 0); err != nil {
			return nil, fmt.Errorf("wire: huffman: %w", err)
		}
	}
	if err := writeStream(&s.bw, s.symbols, s.firsts, code, true); err != nil {
		return nil, err
	}
	return append([]byte(nil), s.bw.Bytes()...), nil
}

// ---- container decoding ----

// segment is one framed stream of a WIR2 container.
type segment struct {
	op         ir.Op  // OpInvalid for the shape stream
	count      int    // symbols coded; 0 for an empty literal stream, which has no bytes
	data       []byte // the coded bytes, CRC trailer verified and stripped
	start, end int    // framed byte range: count varint (literal streams), length varint, bytes, CRC
}

func (s *segment) name() string {
	if s.op == ir.OpInvalid {
		return "shape"
	}
	return s.op.String()
}

// readSegments reads the shape-stream segment, which codes one symbol
// per tree, then each literal stream's count and segment in opcode
// order, and requires the container to end there. A segment's bytes are
// a slice of the container, not a copy, and its CRC is verified here,
// before it is entropy-decoded.
func readSegments(br *bitio.Reader, size int, treeCounts []int) ([]segment, error) {
	shapeCount := 0
	for _, n := range treeCounts {
		shapeCount += n
	}
	segs := make([]segment, numStreams())
	for j := range segs {
		s := &segs[j]
		s.start = int(br.BitsRead() / 8)
		s.count = shapeCount
		if j > 0 {
			s.op = litOps()[j-1]
			n, err := readUvarint(br)
			if err != nil || n > maxLiteralSymbols {
				return nil, fmt.Errorf("%w: literal stream size for %s", ErrCorrupt, s.op)
			}
			s.count = int(n)
		}
		if j == 0 || s.count > 0 {
			n, err := readUvarint(br)
			if err != nil || n > uint64(size) {
				return nil, fmt.Errorf("%w: segment length for %s", ErrCorrupt, s.name())
			}
			framed, err := br.ReadSlice(int(n) + integrity.ChecksumLen)
			if err != nil {
				return nil, fmt.Errorf("%w: segment bytes for %s", ErrTruncated, s.name())
			}
			if s.data, err = integrity.SplitChecksum(framed, "stream segment"); err != nil {
				return nil, retag(err)
			}
		}
		s.end = int(br.BitsRead() / 8)
	}
	if end := segs[len(segs)-1].end; end != size {
		return nil, fmt.Errorf("%w: %d trailing container bytes", ErrCorrupt, size-end)
	}
	return segs, nil
}

// parseContainer decodes a container body into a module: header,
// shapes and segments, each stream in container order, then the tree
// fill under its own span, which splits the caller's wire.parse span in
// a trace. The header and fill check every invariant
// ir.Module.Validate checks, so the module is valid without a second
// walk. rec may be nil.
func parseContainer(data []byte, opt Options, rec *telemetry.Recorder) (*ir.Module, error) {
	br := bitio.NewReaderBytes(data)
	m, treeCounts, err := readModuleHeader(br)
	if err != nil {
		return nil, err
	}
	shapes, err := readShapeTable(br)
	if err != nil {
		return nil, err
	}
	segs, err := readSegments(br, len(data), treeCounts)
	if err != nil {
		return nil, err
	}
	var (
		arena       huffman.Arena // every segment's in-band table
		shapeStream []int32
		lits        [ir.NumOps][]int32
	)
	for i := range segs {
		s := &segs[i]
		if s.count == 0 {
			continue
		}
		vals, err := readStream(bitio.NewReaderBytes(s.data), len(s.data), s.count, opt, nil, true, &arena)
		if err != nil {
			return nil, fmt.Errorf("%w: %s stream: %v", ErrCorrupt, s.name(), err)
		}
		if i == 0 {
			shapeStream = vals
		} else {
			lits[s.op] = vals
		}
	}
	fsp := rec.StartSpan("wire.fill")
	err = fill(m.Functions, treeCounts, shapeStream, shapes, &lits, len(m.Syms))
	fsp.End()
	if err != nil {
		return nil, err
	}
	return m, nil
}
