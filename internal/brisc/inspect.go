package brisc

// Byte-exact attribution of a serialized BRISC object: Inspect parses
// the image, verifies the parse is canonical (re-serializing
// reproduces the input byte for byte), partitions the file into named
// sections — down to one section per learned dictionary entry — and
// reads the code stream unit by unit from the predecoded unit table
// the interpreter uses (the JIT decodes with the same walk), recording
// each unit's byte range, pattern id, and what the unit's instructions
// would cost encoded with base patterns only. internal/attrib turns this into the P-vs-W
// dictionary economics and hot-spot reports.

import (
	"bytes"
	"fmt"

	"repro/internal/integrity"
	"repro/internal/vm"
)

// Section is one contiguous byte range of a serialized BRISC object.
type Section struct {
	Name  string // e.g. "meta.funcs", "dict[37]", "markov", "code"
	Class string // "header", "metadata", "dictionary", "tables", "blocks", "code"
	Start int
	Len   int
}

// UnitInfo describes one decoded unit of the code stream. Units
// partition the stream: the first starts at offset 0 and each next
// unit starts where the previous ended.
type UnitInfo struct {
	Off     int32 // byte offset in Object.Code
	Len     int32 // encoded bytes (opcode byte(s) + operand nibbles)
	Pid     int   // dictionary entry used
	Escape  bool  // escape-coded (255 + varint pid) instead of a context index
	Instrs  int   // instructions the pattern expands to
	BaseLen int32 // bytes the same instructions cost with base patterns only
}

// DictInfo describes one dictionary entry's cost model: EntryBytes is
// its exact serialized size in the image (zero for the implicit base
// set) and ModelW the paper's decoder working-set estimate W.
type DictInfo struct {
	Pid        int
	Pattern    string
	Instrs     int
	Learned    bool
	EntryBytes int
	ModelW     int
}

// Inspection is the full byte attribution of one BRISC image.
type Inspection struct {
	Obj       *Object
	FileBytes int
	Sections  []Section
	Units     []UnitInfo
	Dict      []DictInfo
	// OpStatic counts, per VM opcode, how many instructions of that
	// opcode the code stream expands to — the static side of the
	// dispatch-counter join.
	OpStatic []int64
}

// Inspect attributes every byte of a serialized BRISC object.
func Inspect(data []byte) (*Inspection, error) {
	o, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(o.Bytes(), data) {
		return nil, fmt.Errorf("%w: non-canonical serialization, cannot attribute", ErrCorrupt)
	}
	insp := &Inspection{Obj: o, FileBytes: len(data), OpStatic: make([]int64, vm.NumOpcodes)}
	insp.buildSections()
	if err := insp.walkUnits(); err != nil {
		return nil, err
	}
	insp.buildDict()
	return insp, insp.checkPartition()
}

// buildSections recomputes each component's serialized extent with the
// same append helpers Bytes uses, so section lengths are exact by
// construction.
func (insp *Inspection) buildSections() {
	o := insp.Obj
	pos := 0
	add := func(name, class string, n int) {
		insp.Sections = append(insp.Sections, Section{Name: name, Class: class, Start: pos, Len: n})
		pos += n
	}
	// Per-section framing overhead: the length varint ("header" class)
	// before each section and the CRC32C trailer ("integrity" class)
	// after it.
	frameLen := func(name string, n int) { add(name+".len", "header", uvarintLen(uint64(n))) }
	frameCRC := func(name string) { add(name+".crc", "integrity", integrity.ChecksumLen) }

	add("magic", "header", len(objMagic))
	add("version", "header", 1)

	frameLen("meta", len(o.metaBytes()))
	add("meta.name", "metadata", len(appendString(nil, o.Name)))
	var b []byte
	b = appendUvarint(nil, uint64(o.DataSize))
	b = appendUvarint(b, uint64(len(o.Globals)))
	for _, g := range o.Globals {
		b = appendString(b, g.Name)
		b = appendUvarint(b, uint64(g.Addr))
		b = appendUvarint(b, uint64(g.Size))
		b = appendUvarint(b, uint64(len(g.Init)))
		b = append(b, g.Init...)
	}
	add("meta.globals", "metadata", len(b))
	b = appendUvarint(nil, uint64(len(o.Funcs)))
	for _, f := range o.Funcs {
		b = appendString(b, f.Name)
		b = appendUvarint(b, uint64(f.EntryBlock))
		b = appendUvarint(b, uint64(f.Frame))
	}
	add("meta.funcs", "metadata", len(b))
	add("meta.passes", "metadata", len(appendUvarint(nil, uint64(o.Passes))))
	frameCRC("meta")

	frameLen("dict", len(o.dictBytes()))
	add("dict.count", "dictionary", len(appendUvarint(nil, uint64(len(o.Dict)-vm.NumOpcodes))))
	for i, p := range o.Dict[vm.NumOpcodes:] {
		add(fmt.Sprintf("dict[%d]", vm.NumOpcodes+i), "dictionary", len(appendPattern(nil, p)))
	}
	frameCRC("dict")

	frameLen("markov", len(o.tableBytes()))
	add("markov", "tables", len(o.tableBytes()))
	frameCRC("markov")

	frameLen("blocks", len(o.blockBytes()))
	add("blocks", "blocks", len(o.blockBytes()))
	frameCRC("blocks")

	frameLen("code", len(o.Code))
	add("code", "code", len(o.Code))
	frameCRC("code")
}

// walkUnits records per-unit extents, pattern use, and base-encoding
// cost from the predecoded unit table, so an image that does not
// predecode fails here with the interpreter's ErrCorrupt.
func (insp *Inspection) walkUnits() error {
	o := insp.Obj
	pre, err := o.predecode()
	if err != nil {
		return err
	}
	insp.Units = make([]UnitInfo, 0, len(pre.units))
	for _, u := range pre.units {
		instrs := pre.code[u.first : u.first+u.n]
		base := 0
		for _, ins := range instrs {
			bp := basePattern(ins.Op)
			base += bp.encodedSize(bp.extract([]vm.Instr{ins}))
			insp.OpStatic[ins.Op]++
		}
		insp.Units = append(insp.Units, UnitInfo{
			Off: u.off, Len: u.next - u.off, Pid: int(u.pid),
			Escape: o.Code[u.off] == 255,
			Instrs: len(instrs), BaseLen: int32(base),
		})
	}
	return nil
}

func (insp *Inspection) buildDict() {
	o := insp.Obj
	insp.Dict = make([]DictInfo, len(o.Dict))
	for pid, p := range o.Dict {
		d := DictInfo{
			Pid:     pid,
			Pattern: p.String(),
			Instrs:  len(p.Seq),
			Learned: pid >= vm.NumOpcodes,
			ModelW:  tableCostW(p),
		}
		if d.Learned {
			d.EntryBytes = len(appendPattern(nil, p))
		}
		insp.Dict[pid] = d
	}
}

// checkPartition enforces the attribution invariants: sections are
// contiguous and sum to the file size, and units are contiguous and
// sum to the code stream size.
func (insp *Inspection) checkPartition() error {
	pos, sum := 0, 0
	for _, s := range insp.Sections {
		if s.Start != pos {
			return fmt.Errorf("brisc: attribution gap at byte %d (section %q starts at %d)", pos, s.Name, s.Start)
		}
		pos = s.Start + s.Len
		sum += s.Len
	}
	if sum != insp.FileBytes {
		return fmt.Errorf("brisc: attributed %d bytes, file has %d", sum, insp.FileBytes)
	}
	var upos, usum int32
	for _, u := range insp.Units {
		if u.Off != upos {
			return fmt.Errorf("brisc: unit gap at code offset %d (unit starts at %d)", upos, u.Off)
		}
		upos = u.Off + u.Len
		usum += u.Len
	}
	if int(usum) != len(insp.Obj.Code) {
		return fmt.Errorf("brisc: units cover %d bytes, code stream has %d", usum, len(insp.Obj.Code))
	}
	return nil
}
