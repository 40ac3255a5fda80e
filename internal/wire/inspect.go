package wire

// Byte-exact attribution of a WIR2 artifact: Inspect re-walks the
// container with the decoder's own framing, header, shape-table and
// segment readers, so it enforces the same checks and size caps as
// Decompress, and partitions every byte into named sections —
// metadata, shape definitions, and one framed segment per
// entropy-coded stream — while recording per-stream bit accounting
// (first-occurrence values, Huffman table, payload, padding) and the
// coded symbols themselves. internal/attrib builds its reports on top
// of this; the partition invariant (sections are contiguous and sum
// exactly to the container size) is checked here, so a mismatch is an
// Inspect error, never a silently wrong report.

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/ir"
)

// Section is one contiguous byte range of a WIR2 container.
type Section struct {
	Name  string // e.g. "metadata", "shape-defs", "stream[shape]", "stream[CNSTI]"
	Class string // "metadata", "operators", or "literals"
	Start int
	Len   int
}

// StreamInfo is the bit-level accounting of one coded symbol stream.
// The framed range [Start, Start+Len) covers the count and length
// varints plus the segment; within the segment,
//
//	FirstsBytes*8 + TableBits + PayloadBits + PadBits == SegBytes*8.
type StreamInfo struct {
	Name        string // "shape" or the literal opcode name
	Op          ir.Op  // OpInvalid for the shape stream
	Count       int    // symbols coded
	Start, Len  int    // framed byte range in the container
	SegBytes    int    // the coded segment proper
	FirstsBytes int    // first-occurrence block: count varint + zigzag varints
	TableBits   int64  // serialized Huffman code lengths
	PayloadBits int64  // entropy-coded symbol bits
	PadBits     int64  // flush padding to the byte boundary

	Symbols []int   // coded symbols: MTF indices (or zigzagged values with NoMTF)
	SymBits []uint8 // exact encoded bit length of each symbol
	Firsts  []int32 // first-occurrence values in consumption order
}

// Inspection is the full byte attribution of one WIR2 artifact.
// Sections is an exact partition of the container: contiguous from 0
// and summing to ContainerBytes (verified by Inspect).
type Inspection struct {
	Opt            Options
	FileBytes      int // the artifact, including header and final stage
	ContainerBytes int // after undoing the final stage
	Sections       []Section
	Streams        []StreamInfo // index 0 is the shape stream

	// Decoded structure for per-function attribution.
	ModuleName  string
	FuncNames   []string
	TreeCounts  []int
	Shapes      [][]ir.Op
	ShapeStream []int32 // decoded shape id per tree, module order
}

// Inspect attributes every byte of a WIR2 artifact.
func Inspect(data []byte) (*Inspection, error) {
	opt, container, err := openContainer(data, nil)
	if err != nil {
		return nil, err
	}
	insp := &Inspection{Opt: opt, FileBytes: len(data), ContainerBytes: len(container)}
	if err := insp.walk(container); err != nil {
		return nil, err
	}
	if err := insp.checkPartition(); err != nil {
		return nil, err
	}
	return insp, nil
}

// checkPartition enforces the attribution invariant: sections are
// contiguous from offset 0 and sum exactly to the container size.
func (insp *Inspection) checkPartition() error {
	pos, sum := 0, 0
	for _, s := range insp.Sections {
		if s.Start != pos {
			return fmt.Errorf("wire: attribution gap at byte %d (section %q starts at %d)", pos, s.Name, s.Start)
		}
		pos = s.Start + s.Len
		sum += s.Len
	}
	if sum != insp.ContainerBytes {
		return fmt.Errorf("wire: attributed %d bytes, container has %d", sum, insp.ContainerBytes)
	}
	for _, st := range insp.Streams {
		bits := int64(st.FirstsBytes)*8 + st.TableBits + st.PayloadBits + st.PadBits
		if bits != int64(st.SegBytes)*8 {
			return fmt.Errorf("wire: stream %s: attributed %d bits, segment has %d", st.Name, bits, int64(st.SegBytes)*8)
		}
	}
	return nil
}

// walk reads the container with the decoder's own readers and records
// each section from their byte offsets: metadata, shape definitions,
// then one framed range per stream ("empty[OP]" for a literal stream
// with no symbols, whose count varint is its only byte).
func (insp *Inspection) walk(container []byte) error {
	br := bitio.NewReaderBytes(container)
	offset := func() int { return int(br.BitsRead() / 8) }
	section := func(name, class string, start, end int) {
		insp.Sections = append(insp.Sections, Section{Name: name, Class: class, Start: start, Len: end - start})
	}
	m, treeCounts, err := readModuleHeader(br)
	if err != nil {
		return err
	}
	insp.ModuleName = m.Name
	for _, f := range m.Functions {
		insp.FuncNames = append(insp.FuncNames, f.Name)
	}
	insp.TreeCounts = treeCounts
	metaEnd := offset()
	section("metadata", "metadata", 0, metaEnd)
	if insp.Shapes, err = readShapeTable(br); err != nil {
		return err
	}
	section("shape-defs", "operators", metaEnd, offset())
	segs, err := readSegments(br, len(container), treeCounts)
	if err != nil {
		return err
	}
	for i := range segs {
		s := &segs[i]
		class := "literals"
		if i == 0 {
			class = "operators"
		}
		if i > 0 && s.count == 0 {
			section("empty["+s.name()+"]", class, s.start, s.end)
			continue
		}
		st := StreamInfo{
			Name: s.name(), Op: s.op, Count: s.count,
			Start: s.start, Len: s.end - s.start, SegBytes: len(s.data),
		}
		if err := decodeSegmentDetail(&st, s.data, insp.Opt); err != nil {
			return fmt.Errorf("%w: stream %s: %v", ErrCorrupt, st.Name, err)
		}
		section("stream["+st.Name+"]", class, s.start, s.end)
		insp.Streams = append(insp.Streams, st)
	}
	shape := &insp.Streams[0]
	if insp.ShapeStream, err = unsymbolize(shape.Symbols, shape.Firsts, insp.Opt.NoMTF); err != nil {
		return fmt.Errorf("%w: shape stream: %v", ErrCorrupt, err)
	}
	return nil
}

// decodeSegmentDetail mirrors readStream on an in-band segment but
// keeps the coded symbols and the exact bit cost of every component.
func decodeSegmentDetail(st *StreamInfo, seg []byte, opt Options) error {
	br := bitio.NewReaderBytes(seg)
	if err := fitSymbols(br, len(seg), st.Count); err != nil {
		return err
	}
	nFirsts, err := readUvarint(br)
	if err != nil || nFirsts > uint64(st.Count) {
		return fmt.Errorf("firsts count")
	}
	st.Firsts = make([]int32, nFirsts)
	for i := range st.Firsts {
		v, err := readUvarint(br)
		if err != nil {
			return err
		}
		st.Firsts[i] = unzigzag(v)
	}
	st.FirstsBytes = int(br.BitsRead() / 8)

	st.Symbols = make([]int, st.Count)
	st.SymBits = make([]uint8, st.Count)
	if opt.NoHuffman {
		for i := range st.Symbols {
			before := br.BitsRead()
			v, err := readUvarint(br)
			if err != nil {
				return err
			}
			st.Symbols[i] = int(v)
			st.SymBits[i] = uint8(br.BitsRead() - before)
		}
		st.PayloadBits = br.BitsRead() - int64(st.FirstsBytes)*8
	} else {
		tableStart := br.BitsRead()
		code, err := huffman.ReadLengths(br)
		if err != nil {
			return err
		}
		st.TableBits = br.BitsRead() - tableStart
		for i := range st.Symbols {
			s, err := code.Decode(br)
			if err != nil {
				return err
			}
			st.Symbols[i] = s
			st.SymBits[i] = code.CodeLen(s)
		}
		st.PayloadBits = br.BitsRead() - tableStart - st.TableBits
	}
	st.PadBits = int64(len(seg))*8 - br.BitsRead()
	if st.PadBits < 0 || st.PadBits > 7 {
		return fmt.Errorf("segment over/underrun (%d pad bits)", st.PadBits)
	}
	return nil
}
