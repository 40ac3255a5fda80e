package wire

// The codec both formats are built from. WIR2 and WIRX share every
// format decision below: the file prefix, the final stage and its bomb
// cap, the module header and shape table, patternization, the symbol
// stream coder, and the tree fill. They differ only in framing —
// WIR2 puts the whole container through the final stage and gives each
// stream an in-band Huffman table, while WIRX finals only its header,
// which holds one table per stream, and slices every stream into
// independently decodable per-function chunks.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/arith"
	"repro/internal/bitio"
	"repro/internal/flatezip"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/ir"
	"repro/internal/mtf"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// ---- file prefix and final stage ----

// prefixLen is the size of the prefix both formats open with: magic,
// format version, options byte.
const prefixLen = 6

func appendPrefix(dst []byte, fileMagic [4]byte, opt Options) []byte {
	b := byte(opt.Final)
	if opt.NoMTF {
		b |= 0x10
	}
	if opt.NoHuffman {
		b |= 0x20
	}
	dst = append(dst, fileMagic[:]...)
	return append(dst, formatVersion, b)
}

// readPrefix checks data's magic, version and options byte, and returns
// the options. It runs before any checksum, so a version mismatch is
// reported as such.
func readPrefix(data []byte, fileMagic [4]byte) (Options, error) {
	if len(data) < prefixLen {
		return Options{}, fmt.Errorf("%w: short header", ErrTruncated)
	}
	if !bytes.Equal(data[:4], fileMagic[:]) {
		return Options{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != formatVersion {
		return Options{}, fmt.Errorf("%w: version %d (decoder speaks %d)", ErrVersion, data[4], formatVersion)
	}
	b := data[5]
	opt := Options{
		Final:     FinalCoder(b & 0x0F),
		NoMTF:     b&0x10 != 0,
		NoHuffman: b&0x20 != 0,
	}
	if opt.Final > FinalNone {
		return opt, fmt.Errorf("%w: options byte %#x", ErrCorrupt, b)
	}
	return opt, nil
}

// appendFinal appends raw run through the final coder.
func appendFinal(dst, raw []byte, fc FinalCoder) ([]byte, error) {
	switch fc {
	case FinalLZ:
		return append(dst, flatezip.Compress(raw)...), nil
	case FinalArith:
		return append(dst, arith.Compress(raw, arith.Order1)...), nil
	case FinalNone:
		return append(dst, raw...), nil
	}
	return nil, fmt.Errorf("wire: unknown final coder %d", fc)
}

// unfinal undoes the final stage under the decompression-bomb cap: the
// output may not exceed MaxContainerBytes. declared is the raw size the
// file records (WIR2), or 0 when it records none (the WIRX header); a
// declared size is checked against the cap before anything is
// allocated, and the output must then match it exactly.
func unfinal(payload []byte, fc FinalCoder, declared uint64, rec *telemetry.Recorder) ([]byte, error) {
	if err := integrity.CheckSize("container", declared, MaxContainerBytes); err != nil {
		return nil, retag(err)
	}
	limit := MaxContainerBytes
	if declared > 0 {
		limit = declared
	}
	sp := rec.StartSpan("wire.unfinal")
	var raw []byte
	var err error
	switch fc {
	case FinalLZ:
		raw, err = flatezip.DecompressLimit(payload, limit)
	case FinalArith:
		raw, err = arith.Decompress(payload, arith.Order1)
	case FinalNone:
		raw = payload
	}
	sp.SetAttr(telemetry.Int("bytes_out", int64(len(raw))))
	sp.End()
	if err != nil {
		return nil, retag(fmt.Errorf("final stage: %w", err))
	}
	if declared > 0 && uint64(len(raw)) != declared {
		return nil, fmt.Errorf("%w: container is %d bytes, header declares %d", ErrCorrupt, len(raw), declared)
	}
	if err := integrity.CheckSize("final-stage output", uint64(len(raw)), MaxContainerBytes); err != nil {
		return nil, retag(err)
	}
	return raw, nil
}

// ---- module header and shape table ----

// writeModuleHeader writes the module metadata: name, externs, globals,
// and each function's header with its tree count. Every field is
// byte-aligned.
func writeModuleHeader(bw *bitio.Writer, m *ir.Module) {
	writeString(bw, m.Name)
	writeUvarint(bw, uint64(len(m.Externs)))
	for _, n := range m.Externs {
		writeString(bw, n)
	}
	writeUvarint(bw, uint64(len(m.Globals)))
	for _, g := range m.Globals {
		writeString(bw, g.Name)
		writeUvarint(bw, uint64(g.Size))
		writeUvarint(bw, uint64(len(g.Init)))
		mustW(bw.WriteBytes(g.Init))
	}
	writeUvarint(bw, uint64(len(m.Functions)))
	for _, f := range m.Functions {
		writeString(bw, f.Name)
		writeUvarint(bw, uint64(f.NumParams))
		writeUvarint(bw, uint64(f.FrameSize))
		writeUvarint(bw, uint64(len(f.Roots)))
	}
}

// readModuleHeader reverses writeModuleHeader. It returns the module
// with tree-less functions and its symbol table, which name literals
// index (externs, globals, then functions, first occurrence wins), and
// each function's tree count. It rejects symbol collisions as
// ir.Module.Validate does: externs may repeat, but a global may not
// repeat an extern or a global, nor a function any earlier name.
func readModuleHeader(br *bitio.Reader) (*ir.Module, []int, error) {
	m := &ir.Module{}
	var err error
	if m.Name, err = readString(br); err != nil {
		return nil, nil, fmt.Errorf("%w: name: %v", ErrCorrupt, err)
	}
	nExterns, err := readUvarint(br)
	if err != nil || nExterns > 1<<16 {
		return nil, nil, fmt.Errorf("%w: externs", ErrCorrupt)
	}
	known := map[string]bool{}
	for i := uint64(0); i < nExterns; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: extern name", ErrCorrupt)
		}
		m.Externs = append(m.Externs, s)
		if !known[s] {
			known[s] = true
			m.Syms = append(m.Syms, s)
		}
	}
	nGlobals, err := readUvarint(br)
	if err != nil || nGlobals > 1<<20 {
		return nil, nil, fmt.Errorf("%w: globals", ErrCorrupt)
	}
	for i := uint64(0); i < nGlobals; i++ {
		var g ir.Global
		if g.Name, err = readString(br); err != nil {
			return nil, nil, fmt.Errorf("%w: global name", ErrCorrupt)
		}
		if known[g.Name] {
			return nil, nil, fmt.Errorf("%w: duplicate global %q", ErrCorrupt, g.Name)
		}
		known[g.Name] = true
		size, err := readUvarint(br)
		if err != nil || size > 1<<28 {
			return nil, nil, fmt.Errorf("%w: global size", ErrCorrupt)
		}
		g.Size = int(size)
		initLen, err := readUvarint(br)
		if err != nil || initLen > size {
			return nil, nil, fmt.Errorf("%w: global init", ErrCorrupt)
		}
		if initLen > 0 {
			g.Init = make([]byte, initLen)
			if err := br.ReadBytes(g.Init); err != nil {
				return nil, nil, fmt.Errorf("%w: global init bytes", ErrCorrupt)
			}
		}
		m.Globals = append(m.Globals, g)
		m.Syms = append(m.Syms, g.Name)
	}
	nFuncs, err := readUvarint(br)
	if err != nil || nFuncs > 1<<20 {
		return nil, nil, fmt.Errorf("%w: functions", ErrCorrupt)
	}
	treeCounts := make([]int, nFuncs)
	for i := range treeCounts {
		f := &ir.Function{}
		if f.Name, err = readString(br); err != nil {
			return nil, nil, fmt.Errorf("%w: function name", ErrCorrupt)
		}
		if known[f.Name] {
			return nil, nil, fmt.Errorf("%w: duplicate symbol %q", ErrCorrupt, f.Name)
		}
		known[f.Name] = true
		np, err := readUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: params", ErrCorrupt)
		}
		fs, err := readUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: frame", ErrCorrupt)
		}
		nt, err := readUvarint(br)
		if err != nil || nt > 1<<24 {
			return nil, nil, fmt.Errorf("%w: tree count", ErrCorrupt)
		}
		f.NumParams, f.FrameSize = int(np), int(fs)
		treeCounts[i] = int(nt)
		m.Functions = append(m.Functions, f)
		m.Syms = append(m.Syms, f.Name)
	}
	return m, treeCounts, nil
}

// writeShapeTable writes the shape dictionary in first-occurrence
// order: a count, then each shape's length and opcodes.
func writeShapeTable(bw *bitio.Writer, shapes [][]ir.Op) {
	writeUvarint(bw, uint64(len(shapes)))
	for _, ops := range shapes {
		writeUvarint(bw, uint64(len(ops)))
		for _, op := range ops {
			mustW(bw.WriteByte(byte(op)))
		}
	}
}

// readShapeTable reverses writeShapeTable. It rejects undefined
// opcodes and any shape that is not exactly one tree in prefix order,
// so every tree fill copies out of it is well-formed.
func readShapeTable(br *bitio.Reader) ([][]ir.Op, error) {
	nShapes, err := readUvarint(br)
	if err != nil || nShapes > 1<<24 {
		return nil, fmt.Errorf("%w: shape count", ErrCorrupt)
	}
	shapes := make([][]ir.Op, nShapes)
	for i := range shapes {
		n, err := readUvarint(br)
		if err != nil || n == 0 || n > 1<<16 {
			return nil, fmt.Errorf("%w: shape length", ErrCorrupt)
		}
		ops := make([]ir.Op, n)
		open := 1 // subtrees the shape still owes
		for j := range ops {
			if open == 0 {
				return nil, fmt.Errorf("%w: shape %d has %d trailing ops", ErrCorrupt, i, len(ops)-j)
			}
			b, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: shape ops", ErrCorrupt)
			}
			ops[j] = ir.Op(b)
			if !ops[j].Valid() {
				return nil, fmt.Errorf("%w: invalid op %d in shape", ErrCorrupt, b)
			}
			open += ops[j].Arity() - 1
		}
		if open != 0 {
			return nil, fmt.Errorf("%w: shape %d misses %d operands", ErrCorrupt, i, open)
		}
		shapes[i] = ops
	}
	return shapes, nil
}

// ---- patternize ----

// patterns is a module split into the paper's streams (§3 step 2): the
// distinct tree shapes, then the module streams in container order —
// stream 0 is the shape id of every tree, stream 1+j the literals of
// opcode litOps()[j] — plus where each function's part of every stream
// starts.
type patterns struct {
	shapes      [][]ir.Op
	shapeStream []int32
	lits        [ir.NumOps][]int32 // integer literals and name indices
	// marks[fi*numStreams()+j] is the length of stream j before function
	// fi's trees; one extra row holds the final lengths.
	marks []int32
}

// numStreams is the number of symbol streams in either format: the
// shape stream plus one per literal-carrying opcode.
func numStreams() int { return 1 + len(litOps()) }

// stream returns module stream j.
func (p *patterns) stream(j int) []int32 {
	if j == 0 {
		return p.shapeStream
	}
	return p.lits[litOps()[j-1]]
}

// funcStream returns function fi's slice of stream j.
func (p *patterns) funcStream(fi, j int) []int32 {
	n := numStreams()
	return p.stream(j)[p.marks[fi*n+j]:p.marks[(fi+1)*n+j]]
}

// patternize splits the module in one pass over each function's
// nodes: a tree's shape is the ops of its node range, and each literal
// goes to its opcode's stream, a name as its symbol index.
func patternize(m *ir.Module) *patterns {
	n := numStreams()
	p := &patterns{marks: make([]int32, 0, (len(m.Functions)+1)*n)}
	mark := func() {
		for j := 0; j < n; j++ {
			p.marks = append(p.marks, int32(len(p.stream(j))))
		}
	}
	shapeIDs := map[string]int32{}
	var keyBuf []byte
	for _, f := range m.Functions {
		mark()
		for k := range f.Roots {
			keyBuf = keyBuf[:0]
			for _, nd := range f.Tree(k) {
				keyBuf = append(keyBuf, byte(nd.Op))
				switch nd.Op.Lit() {
				case ir.LitInt:
					p.lits[nd.Op] = append(p.lits[nd.Op], int32(nd.Lit))
				case ir.LitName:
					p.lits[nd.Op] = append(p.lits[nd.Op], nd.Sym)
				}
			}
			// The string conversion in the lookup does not allocate; the
			// key is only materialized for first occurrences.
			id, ok := shapeIDs[string(keyBuf)]
			if !ok {
				ops := make([]ir.Op, len(keyBuf))
				for i, b := range keyBuf {
					ops[i] = ir.Op(b)
				}
				id = int32(len(p.shapes))
				shapeIDs[string(keyBuf)] = id
				p.shapes = append(p.shapes, ops)
			}
			p.shapeStream = append(p.shapeStream, id)
		}
	}
	mark()
	return p
}

// ---- symbol streams ----

// streamScratch is the per-stream encoder state — output buffer, bit
// writer, MTF encoder, symbol/frequency scratch — recycled through
// scratchPool across streams and across concurrent Compress calls,
// eliminating the per-stream append-from-nil allocation churn.
type streamScratch struct {
	buf     bytes.Buffer
	bw      *bitio.Writer
	symbols []int
	firsts  []int32
	freqs   []int64
	enc     mtf.Encoder
}

var scratchPool = parallel.NewScratch(
	func() *streamScratch {
		s := new(streamScratch)
		s.bw = bitio.NewWriter(&s.buf)
		return s
	},
	nil, // state is reset at Get time, right before use
)

// moveToFront fills s.symbols with stream's MTF indices and s.firsts
// with its first-occurrence values — or, under noMTF, s.symbols with
// the zigzagged values themselves. Every stream starts a fresh MTF
// table.
func (s *streamScratch) moveToFront(stream []int32, noMTF bool) {
	symbols, firsts := s.symbols[:0], s.firsts[:0]
	if noMTF {
		for _, v := range stream {
			symbols = append(symbols, int(zigzag(v)))
		}
	} else {
		s.enc.Reset()
		symbols, firsts = mtf.AppendEncode(&s.enc, stream, symbols, firsts)
	}
	s.symbols, s.firsts = symbols, firsts // keep grown capacity pooled
}

// addFreqs adds each symbol's count to freqs, growing it to exactly
// cover the largest symbol seen.
func addFreqs(freqs []int64, symbols []int) []int64 {
	top := len(freqs) - 1
	for _, sym := range symbols {
		top = max(top, sym)
	}
	if top >= len(freqs) {
		freqs = append(freqs, make([]int64, top+1-len(freqs))...)
	}
	for _, sym := range symbols {
		freqs[sym]++
	}
	return freqs
}

// writeStream writes one symbolized stream: the first-occurrence values
// as zigzag varints (the paper's "1, 2, or 4-byte values, as
// appropriate" byte packing, realized as varints so the LZ stage sees
// uniform framing), then the symbols Huffman-coded with code, or as
// varints when code is nil (NoHuffman). inBand writes code's lengths
// ahead of the symbols, as each WIR2 segment does; WIRX streams use a
// code stored once in the header.
func writeStream(bw *bitio.Writer, symbols []int, firsts []int32, code *huffman.Code, inBand bool) error {
	writeUvarint(bw, uint64(len(firsts)))
	for _, v := range firsts {
		writeUvarint(bw, zigzag(v))
	}
	if code == nil {
		for _, sym := range symbols {
			writeUvarint(bw, uint64(sym))
		}
		return nil
	}
	if inBand {
		if err := code.WriteLengths(bw); err != nil {
			return err
		}
	}
	for _, sym := range symbols {
		if err := code.Encode(bw, sym); err != nil {
			return err
		}
	}
	return nil
}

// readStream reverses writeStream for count symbols read from br, whose
// input is segBytes long, and undoes the MTF stage as it goes, so each
// symbol decodes straight to its value. Unless opt.NoHuffman, the
// symbols are decoded with the table read in-band or, when !inBand,
// with the shared code.
func readStream(br *bitio.Reader, segBytes, count int, opt Options, code *huffman.Code, inBand bool) ([]int32, error) {
	if err := fitSymbols(br, segBytes, count); err != nil {
		return nil, err
	}
	nFirsts, err := readUvarint(br)
	if err != nil || nFirsts > uint64(count) {
		return nil, fmt.Errorf("firsts count")
	}
	firsts := make([]int32, nFirsts)
	for i := range firsts {
		v, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		firsts[i] = unzigzag(v)
	}
	if opt.NoHuffman {
		code = nil
	} else if inBand {
		if code, err = huffman.ReadLengths(br); err != nil {
			return nil, err
		}
	} else if code == nil && count > 0 {
		return nil, fmt.Errorf("missing shared code")
	}
	u := streamDecoder(firsts, opt.NoMTF)
	vals := make([]int32, count)
	for i := range vals {
		var sym int
		if code == nil {
			v, err := readUvarint(br)
			if err != nil {
				return nil, err
			}
			sym = int(v)
		} else if sym, err = code.Decode(br); err != nil {
			return nil, err
		}
		if vals[i], err = symbolValue(u, sym); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// fitSymbols rejects a declared symbol count that the rest of br's
// segBytes-long input cannot hold. Every coded symbol costs at least
// one bit (Huffman codes are >= 1 bit, varints 8), so this bounds the
// count-sized allocations that follow by the input size.
func fitSymbols(br *bitio.Reader, segBytes, count int) error {
	if left := 8*int64(segBytes) - br.BitsRead(); int64(count) > left {
		return fmt.Errorf("%d symbols declared in %d bits", count, left)
	}
	return nil
}

// streamDecoder returns the MTF decoder for a stream whose
// first-occurrence values are firsts, or nil under noMTF.
func streamDecoder(firsts []int32, noMTF bool) *mtf.StreamDecoder {
	if noMTF {
		return nil
	}
	return mtf.NewStreamDecoder(firsts)
}

// symbolValue returns the value symbol sym codes: its MTF decode through u,
// or its zigzag shift when u is nil (noMTF).
func symbolValue(u *mtf.StreamDecoder, sym int) (int32, error) {
	if u == nil {
		return unzigzag(uint64(sym)), nil
	}
	v, ok := u.Next(sym)
	if !ok {
		return 0, fmt.Errorf("mtf decode failed")
	}
	return v, nil
}

// unsymbolize inverts the MTF stage (or the zigzag shift under noMTF)
// over a whole stream of symbols.
func unsymbolize(symbols []int, firsts []int32, noMTF bool) ([]int32, error) {
	u := streamDecoder(firsts, noMTF)
	out := make([]int32, len(symbols))
	for i, sym := range symbols {
		v, err := symbolValue(u, sym)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---- tree fill ----

// fill sets fns' trees — treeCounts[i] for fns[i] — from the shape
// stream and the per-opcode literal streams, consuming both in order.
// readShapeTable has already checked that every shape is one
// well-formed tree, so a tree is its shape's ops with each literal
// taken from its opcode's stream: there is nothing to link. Every
// function's nodes and roots are slices of one array each, sized from
// the shape stream. fill is the decode path's one pass over the
// trees, so it also checks what ir.Module.Validate checks there: each
// function's labels, through one ir.LabelCheck, and each ADDRGP symbol
// index against nSyms, the size of a symbol table that holds only
// declared symbols, so an index in range is a known name.
func fill(fns []*ir.Function, treeCounts []int, shapeStream []int32, shapes [][]ir.Op, lits *[ir.NumOps][]int32, nSyms int) error {
	total := 0
	for _, id := range shapeStream {
		if id >= 0 && int(id) < len(shapes) {
			total += len(shapes[id])
		}
	}
	// An invalid shape id leaves the array short of the stream's
	// trees, but the fill fails there, before it needs the room.
	nodes := make([]ir.Node, total)
	roots := make([]int32, len(shapeStream))
	var (
		litPos [ir.NumOps]int
		labels ir.LabelCheck
	)
	si, ni := 0, 0
	for fi, f := range fns {
		n := treeCounts[fi]
		if n > len(shapeStream)-si {
			return fmt.Errorf("%w: shape stream underflow", ErrCorrupt)
		}
		first := ni
		f.Roots = roots[si : si+n : si+n]
		labels.Begin(f.Name)
		for k := range f.Roots {
			id := shapeStream[si]
			si++
			if id < 0 || int(id) >= len(shapes) {
				return fmt.Errorf("%w: shape id %d", ErrCorrupt, id)
			}
			f.Roots[k] = int32(ni - first)
			for _, op := range shapes[id] {
				nd := &nodes[ni]
				ni++
				nd.Op = op
				kind := op.Lit()
				if kind == ir.LitNone {
					continue
				}
				s, p := lits[op], litPos[op]
				if p >= len(s) {
					return fmt.Errorf("%w: literal underflow for %s", ErrCorrupt, op)
				}
				litPos[op] = p + 1
				v := s[p]
				switch {
				case kind == ir.LitName:
					if v < 0 || int(v) >= nSyms {
						return fmt.Errorf("%w: name index %d out of range", ErrCorrupt, v)
					}
					nd.Sym = v
				case op == ir.LABELV:
					nd.Lit = int64(v)
					if err := labels.Define(nd.Lit); err != nil {
						return fmt.Errorf("%w: %v", ErrCorrupt, err)
					}
				case op == ir.JUMPV || op.IsBranch():
					nd.Lit = int64(v)
					labels.Use(nd.Lit)
				default:
					nd.Lit = int64(v)
				}
			}
		}
		f.Nodes = nodes[first:ni:ni]
		if err := labels.End(); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return nil
}

// ---- primitive serialization helpers ----

func mustW(err error) {
	if err != nil {
		panic("wire: write to bytes.Buffer failed: " + err.Error())
	}
}

func zigzag(v int32) uint64   { return uint64(uint32(v<<1) ^ uint32(v>>31)) }
func unzigzag(u uint64) int32 { return int32(uint32(u)>>1) ^ -int32(u&1) }

func writeUvarint(bw *bitio.Writer, v uint64) {
	for v >= 0x80 {
		mustW(bw.WriteByte(byte(v) | 0x80))
		v >>= 7
	}
	mustW(bw.WriteByte(byte(v)))
}

func readUvarint(br *bitio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, fmt.Errorf("varint overflow")
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

func appendUv(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(dst, buf[:binary.PutUvarint(buf[:], v)]...)
}

func writeString(bw *bitio.Writer, s string) {
	writeUvarint(bw, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		mustW(bw.WriteByte(s[i]))
	}
}

func readString(br *bitio.Reader) (string, error) {
	n, err := readUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("string too long")
	}
	b := make([]byte, n)
	for i := range b {
		if b[i], err = br.ReadByte(); err != nil {
			return "", err
		}
	}
	return string(b), nil
}
