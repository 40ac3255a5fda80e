package attrib

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/wire"
)

// wireReport attributes every byte of a WIR2 artifact. The attributed
// space is the container (after undoing the final LZ/arith stage),
// because that is where streams, tables, and metadata have distinct
// extents; FileBytes still records the on-disk artifact size.
func wireReport(source string, insp *wire.Inspection) (*Report, error) {
	r := &Report{
		Kind:       KindWire,
		Source:     source,
		FileBytes:  insp.FileBytes,
		TotalBytes: insp.ContainerBytes,
		Space:      "container",
	}
	for _, s := range insp.Sections {
		r.Components = append(r.Components, Component{Name: s.Name, Class: s.Class, Start: s.Start, Bytes: s.Len})
	}
	for _, st := range insp.Streams {
		r.Streams = append(r.Streams, StreamStat{
			Name:       st.Name,
			Bytes:      st.Len,
			Symbols:    st.Count,
			ActualBits: st.PayloadBits,
			TableBits:  st.TableBits,
			H0Bits:     order0Bits(st.Symbols),
			H1Bits:     order1Bits(st.Symbols),
		})
	}
	var err error
	r.Funcs, r.Opcodes, err = wireFuncBits(insp)
	if err != nil {
		return nil, err
	}
	return r, r.Check()
}

// streamWalker steps through one coded stream, yielding the exact bit
// cost of each successive symbol: its entropy code plus, for a fresh
// MTF symbol (index 0), the first-occurrence varint it consumes.
type streamWalker struct {
	st    *wire.StreamInfo
	noMTF bool
	pos   int
	first int
}

func (sw *streamWalker) next() (int64, error) {
	if sw.pos >= len(sw.st.Symbols) {
		return 0, fmt.Errorf("attrib: stream %s underflow at symbol %d", sw.st.Name, sw.pos)
	}
	bits := int64(sw.st.SymBits[sw.pos])
	if !sw.noMTF && sw.st.Symbols[sw.pos] == 0 {
		if sw.first >= len(sw.st.Firsts) {
			return 0, fmt.Errorf("attrib: stream %s firsts underflow", sw.st.Name)
		}
		bits += int64(uvarintLen(zigzag32(sw.st.Firsts[sw.first]))) * 8
		sw.first++
	}
	sw.pos++
	return bits, nil
}

// wireFuncBits replays the module structure — each function's trees,
// each tree's shape, each shape's literal-carrying operators in prefix
// order — against the coded streams, attributing every symbol's exact
// bits to its source function and literal opcode. The remainder
// (Huffman tables, firsts counts, framing, metadata) is shared
// overhead reported at the section level.
func wireFuncBits(insp *wire.Inspection) ([]FuncStat, []OpcodeStat, error) {
	if len(insp.Streams) == 0 {
		return nil, nil, nil
	}
	shapeWalk := &streamWalker{st: &insp.Streams[0], noMTF: insp.Opt.NoMTF}
	litWalk := map[ir.Op]*streamWalker{}
	for i := 1; i < len(insp.Streams); i++ {
		st := &insp.Streams[i]
		litWalk[st.Op] = &streamWalker{st: st, noMTF: insp.Opt.NoMTF}
	}
	opBits := map[ir.Op]int64{}
	opCount := map[ir.Op]int64{}

	var funcs []FuncStat
	ti := 0
	for fi, name := range insp.FuncNames {
		fs := FuncStat{Name: name, Units: insp.TreeCounts[fi]}
		for k := 0; k < insp.TreeCounts[fi]; k++ {
			if ti >= len(insp.ShapeStream) {
				return nil, nil, fmt.Errorf("attrib: shape stream underflow at tree %d", ti)
			}
			bits, err := shapeWalk.next()
			if err != nil {
				return nil, nil, err
			}
			fs.Bits += bits
			id := insp.ShapeStream[ti]
			ti++
			if id < 0 || int(id) >= len(insp.Shapes) {
				return nil, nil, fmt.Errorf("attrib: shape id %d out of range", id)
			}
			for _, op := range insp.Shapes[id] {
				if op.Lit() == ir.LitNone {
					continue
				}
				sw := litWalk[op]
				if sw == nil {
					return nil, nil, fmt.Errorf("attrib: no literal stream for %s", op)
				}
				bits, err := sw.next()
				if err != nil {
					return nil, nil, err
				}
				fs.Bits += bits
				opBits[op] += bits
				opCount[op]++
			}
		}
		funcs = append(funcs, fs)
	}

	var opcodes []OpcodeStat
	for i := 1; i < len(insp.Streams); i++ {
		op := insp.Streams[i].Op
		opcodes = append(opcodes, OpcodeStat{Name: op.String(), Static: opCount[op], Bits: opBits[op]})
	}
	return funcs, opcodes, nil
}
