package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Indexed wire objects (WIRX) support the paper's random-access variant:
// "we have used them successfully by decompressing a function at a
// time." WIRX is the WIR2 codec with its Huffman tables moved out of the
// streams: all shared state is semi-static and lives in the header —
// module metadata, the shape dictionary, and one Huffman code per stream
// built over the whole program's MTF indices — so each function's chunk
// is just its slice of every module stream (coded with fresh MTF state)
// and can be decompressed independently. Only the header passes through
// the final LZ/arithmetic stage; chunks are already entropy-coded and
// too small to benefit.

var idxMagic = [4]byte{'W', 'I', 'R', 'X'}

// CompressIndexed encodes a module with per-function random access.
func CompressIndexed(m *ir.Module, opt Options) ([]byte, error) {
	return CompressIndexedTraced(m, opt, nil)
}

// CompressIndexedTraced encodes a module with per-function random
// access, reporting a span with the object's vitals into rec.
func CompressIndexedTraced(m *ir.Module, opt Options, rec *telemetry.Recorder) ([]byte, error) {
	sp := rec.StartSpan("wire.compress_indexed",
		telemetry.Int("functions", int64(len(m.Functions))))
	defer sp.End()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	data, err := compressIndexed(m, opt, opt.pool(rec))
	if err == nil {
		sp.SetAttr(telemetry.Int("bytes_out", int64(len(data))))
	}
	return data, err
}

// compressIndexed lays out a WIRX object for a module the caller has
// validated.
func compressIndexed(m *ir.Module, opt Options, pool *parallel.Pool) ([]byte, error) {
	p := patternize(m)
	nFuncs, n := len(m.Functions), numStreams()

	// Shared codes, one per stream, built over every function's MTF
	// indices. Each job owns one stream, so scheduling cannot perturb the
	// codes.
	codes := make([]*huffman.Code, n)
	if !opt.NoHuffman {
		var err error
		codes, err = parallel.Map(pool, "wire.symbolize", n, func(j int) (*huffman.Code, error) {
			s := scratchPool.Get()
			defer scratchPool.Put(s)
			var freqs []int64
			for fi := 0; fi < nFuncs; fi++ {
				s.moveToFront(p.funcStream(fi, j), opt.NoMTF)
				freqs = addFreqs(freqs, s.symbols)
			}
			if len(freqs) == 0 {
				return nil, nil
			}
			return huffman.Build(freqs, 0)
		})
		if err != nil {
			return nil, err
		}
	}

	// Header: module metadata, the shape table, then a presence bit and
	// lengths per shared code.
	var hdr bytes.Buffer
	hw := bitio.NewWriter(&hdr)
	writeModuleHeader(hw, m)
	writeShapeTable(hw, p.shapes)
	if !opt.NoHuffman {
		for _, c := range codes {
			if c == nil {
				mustW(hw.WriteBit(0))
				continue
			}
			mustW(hw.WriteBit(1))
			mustW(c.WriteLengths(hw))
		}
	}
	mustW(hw.Flush())

	// Chunks: per-function coded streams only — the shape stream, then
	// each literal stream's count and (if nonempty) symbols. Each chunk
	// is a standalone byte-aligned body and the shared codes are
	// read-only here, so chunk encoding fans out across the pool; the
	// assembly below walks chunks in function order, keeping the object
	// byte-identical to the serial path.
	chunks, err := parallel.Map(pool, "wire.chunk", nFuncs, func(fi int) ([]byte, error) {
		s := scratchPool.Get()
		defer scratchPool.Put(s)
		s.buf.Reset()
		s.bw.Reset(&s.buf)
		for j := 0; j < n; j++ {
			stream := p.funcStream(fi, j)
			if j > 0 {
				writeUvarint(s.bw, uint64(len(stream)))
				if len(stream) == 0 {
					continue
				}
			}
			s.moveToFront(stream, opt.NoMTF)
			if err := writeStream(s.bw, s.symbols, s.firsts, codes[j], false); err != nil {
				return nil, err
			}
		}
		mustW(s.bw.Flush())
		return append([]byte(nil), s.buf.Bytes()...), nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble. The prefix (magic through the chunk-length table) gets
	// its own CRC32C and each chunk carries a trailing CRC32C — but no
	// whole-file checksum, so partial loads still touch only the header
	// plus the chunks they read.
	hc, err := appendFinal(nil, hdr.Bytes(), opt.Final)
	if err != nil {
		return nil, err
	}
	out := appendPrefix(nil, idxMagic, opt)
	out = appendUv(out, uint64(len(hc)))
	out = append(out, hc...)
	out = appendUv(out, uint64(len(chunks)))
	for _, c := range chunks {
		// Framed chunk length includes the CRC trailer.
		out = appendUv(out, uint64(len(c))+integrity.ChecksumLen)
	}
	out = integrity.AppendChecksum(out, out)
	for _, c := range chunks {
		out = append(out, c...)
		out = integrity.AppendChecksum(out, c)
	}
	return out, nil
}

// IndexedReader provides random access to an indexed wire object.
type IndexedReader struct {
	opt        Options
	module     *ir.Module // metadata; trees filled per function on demand
	shapes     [][]ir.Op
	codes      []*huffman.Code // shared code per stream; all nil under NoHuffman
	chunks     [][]byte
	loaded     []bool
	treeCounts []int
	// BytesTouched counts compressed bytes actually consumed, for the
	// partial-load experiments.
	BytesTouched int
	// Rec, when non-nil, receives a span per function chunk load.
	Rec *telemetry.Recorder
}

// OpenIndexed parses the header of an indexed wire object without
// touching any function chunk.
func OpenIndexed(data []byte) (*IndexedReader, error) {
	opt, err := readPrefix(data, idxMagic)
	if err != nil {
		return nil, err
	}
	pos := prefixLen
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: varint", ErrCorrupt)
		}
		pos += n
		return v, nil
	}
	hlen, err := uv()
	if err != nil || uint64(pos)+hlen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: header length", ErrCorrupt)
	}
	hcomp := data[pos : pos+int(hlen)]
	pos += int(hlen)
	// Bound the count before sizing the table: every chunk needs at
	// least one length byte in the file, so a count beyond the file
	// size is a lie (or a decompression bomb).
	nChunks, err := uv()
	if err != nil || nChunks > uint64(len(data)) {
		return nil, fmt.Errorf("%w: chunk count", ErrCorrupt)
	}
	lens := make([]int, nChunks)
	for i := range lens {
		l, err := uv()
		if err != nil || l > uint64(len(data)) || l < integrity.ChecksumLen {
			return nil, fmt.Errorf("%w: chunk length", ErrCorrupt)
		}
		lens[i] = int(l)
	}
	// The prefix checksum seals everything read so far — magic, version,
	// options, compressed header, and the chunk-length table — before the
	// header is entropy-decoded.
	if pos+integrity.ChecksumLen > len(data) {
		return nil, fmt.Errorf("%w: no room for prefix checksum", ErrTruncated)
	}
	if _, err := integrity.SplitChecksum(data[:pos+integrity.ChecksumLen], "indexed prefix"); err != nil {
		return nil, retag(err)
	}
	pos += integrity.ChecksumLen
	hdr, err := unfinal(hcomp, opt.Final, 0, nil)
	if err != nil {
		return nil, err
	}
	r := &IndexedReader{opt: opt, BytesTouched: pos}
	br := bitio.NewReaderBytes(hdr)
	if r.module, r.treeCounts, err = readModuleHeader(br); err != nil {
		return nil, err
	}
	if r.shapes, err = readShapeTable(br); err != nil {
		return nil, err
	}
	r.codes = make([]*huffman.Code, numStreams())
	if !opt.NoHuffman {
		for j := range r.codes {
			bit, err := br.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: code flag", ErrCorrupt)
			}
			if bit == 1 {
				if r.codes[j], err = huffman.ReadLengths(br); err != nil {
					return nil, fmt.Errorf("%w: shared code %d: %v", ErrCorrupt, j, err)
				}
			}
		}
	}
	if nChunks != uint64(len(r.module.Functions)) {
		return nil, fmt.Errorf("%w: chunk count", ErrCorrupt)
	}
	r.chunks = make([][]byte, nChunks)
	r.loaded = make([]bool, nChunks)
	for i, l := range lens {
		if pos+l > len(data) {
			return nil, fmt.Errorf("%w: truncated chunk %d", ErrTruncated, i)
		}
		r.chunks[i] = data[pos : pos+l]
		pos += l
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return r, nil
}

// Functions lists the function names in the object.
func (r *IndexedReader) Functions() []string {
	var out []string
	for _, f := range r.module.Functions {
		out = append(out, f.Name)
	}
	return out
}

// Module returns the object's module: its metadata and symbol table,
// with the trees of the functions loaded so far.
func (r *IndexedReader) Module() *ir.Module { return r.module }

// LoadFunction decompresses one function's chunk (idempotent) and
// returns the function with its trees filled in. The fill checks
// the function's labels, and OpenIndexed checked the symbols, so a
// loaded function is valid on its own.
func (r *IndexedReader) LoadFunction(name string) (*ir.Function, error) {
	fi := -1
	for i, f := range r.module.Functions {
		if f.Name == name {
			fi = i
			break
		}
	}
	if fi < 0 {
		return nil, fmt.Errorf("wire: no function %q", name)
	}
	if r.loaded[fi] {
		r.Rec.Add("wire.indexed.chunk_cache_hits", 1)
		return r.module.Functions[fi], nil
	}
	sp := r.Rec.StartSpan("wire.load_function",
		telemetry.String("func", name),
		telemetry.Int("chunk_bytes", int64(len(r.chunks[fi]))))
	defer sp.End()
	r.BytesTouched += len(r.chunks[fi])
	// Verify the chunk's CRC trailer before any entropy decoding.
	chunk, err := integrity.SplitChecksum(r.chunks[fi], "function chunk")
	if err != nil {
		return nil, retag(err)
	}
	br := bitio.NewReaderBytes(chunk)
	shapeStream, err := readStream(br, len(chunk), r.treeCounts[fi], r.opt, r.codes[0], false)
	if err != nil {
		return nil, fmt.Errorf("%w: shape stream for %s: %v", ErrCorrupt, name, err)
	}
	var lits [ir.NumOps][]int32
	for j, op := range litOps() {
		n, err := readUvarint(br)
		if err != nil || n > 1<<26 {
			return nil, fmt.Errorf("%w: literal count for %s", ErrCorrupt, op)
		}
		if n == 0 {
			continue
		}
		if lits[op], err = readStream(br, len(chunk), int(n), r.opt, r.codes[j+1], false); err != nil {
			return nil, fmt.Errorf("%w: literal stream for %s: %v", ErrCorrupt, op, err)
		}
	}
	f := r.module.Functions[fi]
	if err := fill([]*ir.Function{f}, r.treeCounts[fi:fi+1], shapeStream, r.shapes, &lits, len(r.module.Syms)); err != nil {
		return nil, err
	}
	r.loaded[fi] = true
	return f, nil
}

// LoadAll decompresses every function and returns the full module,
// which is then valid (see LoadFunction).
func (r *IndexedReader) LoadAll() (*ir.Module, error) {
	for _, f := range r.module.Functions {
		if _, err := r.LoadFunction(f.Name); err != nil {
			return nil, err
		}
	}
	return r.module, nil
}
