package brisc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/integrity"
	"repro/internal/vm"
)

// ObjFunc locates one function in a BRISC object.
type ObjFunc struct {
	Name       string
	EntryBlock int32
	Frame      int32
}

// Object is a complete BRISC executable: the learned dictionary, the
// per-context Markov follower tables, the byte-packed code stream,
// the block-offset table that keeps the stream randomly addressable,
// the function table, and the data segment.
type Object struct {
	Name     string
	Dict     []Pattern // [0, vm.NumOpcodes) are the implicit base patterns
	Contexts [][]int   // follower tables; 0 = block-start context
	Code     []byte
	Blocks   []int32 // byte offset of each basic block
	Funcs    []ObjFunc
	Globals  []vm.GlobalData
	DataSize int
	// Passes records how many compressor passes built the dictionary.
	Passes int

	// Whole-image predecode, built lazily by predecode() and shared by
	// the interpreters and the inspector; the JIT decodes its own. The
	// Once makes concurrent first uses safe; everything above is
	// immutable after construction.
	predOnce sync.Once
	pred     *predecoded
	predErr  error

	// Decode plans, compiled from Dict by decodePlans on first use.
	planOnce sync.Once
	plans    []decodePlan
}

// Error taxonomy for malformed serialized objects. All of these match
// ErrCorrupt (and their integrity.* kind) under errors.Is.
var (
	// ErrCorrupt reports a malformed serialized object.
	ErrCorrupt = integrity.Alias("brisc: corrupt object", integrity.ErrCorrupt)
	// ErrTruncated reports input that ends before its declared structure.
	ErrTruncated = integrity.Alias("brisc: truncated object", integrity.ErrTruncated, ErrCorrupt)
	// ErrVersion reports an object version this decoder does not speak.
	ErrVersion = integrity.Alias("brisc: unsupported object version", integrity.ErrVersion, ErrCorrupt)
	// ErrTooLarge reports a declared section size above its cap.
	ErrTooLarge = integrity.Alias("brisc: declared size exceeds cap", integrity.ErrTooLarge, ErrCorrupt)
)

var objMagic = [4]byte{'B', 'R', 'S', '1'}

// objFormatVersion is the serialized-object revision written after the
// magic. Version 2 framed every section with a length and a CRC32C
// trailer, verified before the section is parsed.
const objFormatVersion = 2

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

// SizeBreakdown itemizes an object's serialized size. CodeBytes is the
// in-memory interpretable payload; the paper's "code size" comparisons
// use CodeBytes + DictBytes + TableBytes + BlockBytes (everything a
// client must hold to run), excluding data and symbol names, which are
// identical across formats.
type SizeBreakdown struct {
	CodeBytes   int
	DictBytes   int
	TableBytes  int
	BlockBytes  int
	MetaBytes   int // names, globals, function table
	TotalBytes  int
	NumPatterns int // learned patterns (excluding the base set)
	NumBlocks   int
}

// CodeSize returns the bytes a client needs for executable content:
// code stream + dictionary + Markov tables + block table.
func (s SizeBreakdown) CodeSize() int {
	return s.CodeBytes + s.DictBytes + s.TableBytes + s.BlockBytes
}

// Size serializes the object and itemizes section sizes. The section
// fields count content bytes only; TotalBytes additionally counts the
// magic, version byte, and per-section framing (length varint + CRC32C
// trailer), matching len(Bytes()).
func (o *Object) Size() SizeBreakdown {
	var sb SizeBreakdown
	sb.NumPatterns = len(o.Dict) - vm.NumOpcodes
	sb.NumBlocks = len(o.Blocks)
	sb.CodeBytes = len(o.Code)
	sb.DictBytes = len(o.dictBytes())
	sb.TableBytes = len(o.tableBytes())
	sb.BlockBytes = len(o.blockBytes())
	sb.MetaBytes = len(o.metaBytes())
	frame := func(n int) int { return uvarintLen(uint64(n)) + n + integrity.ChecksumLen }
	sb.TotalBytes = len(objMagic) + 1 + frame(sb.MetaBytes) + frame(sb.DictBytes) +
		frame(sb.TableBytes) + frame(sb.BlockBytes) + frame(sb.CodeBytes)
	return sb
}

func (o *Object) metaBytes() []byte {
	var b []byte
	b = appendString(b, o.Name)
	b = appendUvarint(b, uint64(o.DataSize))
	b = appendUvarint(b, uint64(len(o.Globals)))
	for _, g := range o.Globals {
		b = appendString(b, g.Name)
		b = appendUvarint(b, uint64(g.Addr))
		b = appendUvarint(b, uint64(g.Size))
		b = appendUvarint(b, uint64(len(g.Init)))
		b = append(b, g.Init...)
	}
	b = appendUvarint(b, uint64(len(o.Funcs)))
	for _, f := range o.Funcs {
		b = appendString(b, f.Name)
		b = appendUvarint(b, uint64(f.EntryBlock))
		b = appendUvarint(b, uint64(f.Frame))
	}
	b = appendUvarint(b, uint64(o.Passes))
	return b
}

func appendPattern(b []byte, p Pattern) []byte {
	b = appendUvarint(b, uint64(len(p.Seq)))
	for _, pi := range p.Seq {
		b = append(b, byte(pi.Op))
		nMask := (len(pi.Fixed) + 7) / 8
		if nMask == 0 {
			nMask = 1
		}
		masks := make([]byte, nMask)
		for f, fx := range pi.Fixed {
			if fx {
				masks[f/8] |= 1 << (uint(f) % 8)
			}
		}
		b = append(b, masks...)
		for f, fx := range pi.Fixed {
			if fx {
				b = appendUvarint(b, zigzag32(pi.Val[f]))
			}
		}
	}
	return b
}

func readPattern(r *byteReader) (Pattern, error) {
	var p Pattern
	nSeq, err := r.uv()
	if err != nil || nSeq == 0 || nSeq > 64 {
		return p, fmt.Errorf("%w: pattern length", ErrCorrupt)
	}
	for j := uint64(0); j < nSeq; j++ {
		opb, err := r.byte()
		if err != nil {
			return p, err
		}
		op := vm.Opcode(opb)
		if !op.Valid() {
			return p, fmt.Errorf("%w: pattern opcode %d", ErrCorrupt, opb)
		}
		nFields := len(op.Fields())
		pi := PatInstr{Op: op, Fixed: make([]bool, nFields), Val: make([]int32, nFields)}
		nMaskBytes := (nFields + 7) / 8
		if nMaskBytes == 0 {
			nMaskBytes = 1
		}
		masks, err := r.bytes(nMaskBytes)
		if err != nil {
			return p, err
		}
		for f := 0; f < nFields; f++ {
			if masks[f/8]&(1<<(uint(f)%8)) != 0 {
				pi.Fixed[f] = true
			}
		}
		for f := 0; f < nFields; f++ {
			if pi.Fixed[f] {
				v, err := r.uv()
				if err != nil {
					return p, err
				}
				pi.Val[f] = unzigzag32(v)
			}
		}
		p.Seq = append(p.Seq, pi)
	}
	return p, nil
}

func (o *Object) dictBytes() []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(o.Dict)-vm.NumOpcodes))
	for _, p := range o.Dict[vm.NumOpcodes:] {
		b = appendPattern(b, p)
	}
	return b
}

// Dictionary file format for server-side reuse: train once on a large
// corpus, ship the dictionary, apply it to many small programs with
// CompressWithDict (the paper's gcc-dictionary-on-salt example).

var dictMagic = [4]byte{'B', 'R', 'D', '1'}

// EncodeDict serializes a trained dictionary (learned patterns only):
// magic, version, count, patterns, CRC32C trailer.
func EncodeDict(dict []Pattern) []byte {
	b := append([]byte(nil), dictMagic[:]...)
	b = append(b, objFormatVersion)
	b = appendUvarint(b, uint64(len(dict)))
	for _, p := range dict {
		b = appendPattern(b, p)
	}
	return integrity.AppendChecksum(b, b)
}

// DecodeDict reverses EncodeDict, verifying the trailer checksum before
// parsing.
func DecodeDict(data []byte) ([]Pattern, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], dictMagic[:]) {
		return nil, fmt.Errorf("%w: bad dictionary magic", ErrCorrupt)
	}
	body, err := integrity.SplitChecksum(data, "dictionary")
	if err != nil {
		return nil, retag(err)
	}
	if len(body) < 5 {
		return nil, fmt.Errorf("%w: missing dictionary version", ErrTruncated)
	}
	if body[4] != objFormatVersion {
		return nil, fmt.Errorf("%w: dictionary version %d (decoder speaks %d)", ErrVersion, body[4], objFormatVersion)
	}
	r := &byteReader{data: body, pos: 5}
	n, err := r.uv()
	if err != nil || n > 1<<20 {
		return nil, fmt.Errorf("%w: dictionary count", ErrCorrupt)
	}
	dict := make([]Pattern, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := readPattern(r)
		if err != nil {
			return nil, err
		}
		dict = append(dict, p)
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return dict, nil
}

func (o *Object) tableBytes() []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(o.Contexts)))
	for _, tbl := range o.Contexts {
		b = appendUvarint(b, uint64(len(tbl)))
		for _, pid := range tbl {
			b = appendUvarint(b, uint64(pid))
		}
	}
	return b
}

func (o *Object) blockBytes() []byte {
	var b []byte
	b = appendUvarint(b, uint64(len(o.Blocks)))
	prev := int32(0)
	for _, off := range o.Blocks {
		b = appendUvarint(b, uint64(off-prev))
		prev = off
	}
	return b
}

// appendFrame frames one section: length varint, content, CRC32C
// trailer. The decoder verifies the checksum before parsing the
// section.
func appendFrame(dst, section []byte) []byte {
	dst = appendUvarint(dst, uint64(len(section)))
	dst = append(dst, section...)
	return integrity.AppendChecksum(dst, section)
}

// Bytes serializes the object: magic, version, then five framed
// sections (metadata, dictionary, Markov tables, block table, code).
func (o *Object) Bytes() []byte {
	var out []byte
	out = append(out, objMagic[:]...)
	out = append(out, objFormatVersion)
	out = appendFrame(out, o.metaBytes())
	out = appendFrame(out, o.dictBytes())
	out = appendFrame(out, o.tableBytes())
	out = appendFrame(out, o.blockBytes())
	out = appendFrame(out, o.Code)
	return out
}

// Parse deserializes an object produced by Bytes. Every section's
// CRC32C trailer is verified before that section is parsed.
func Parse(data []byte) (*Object, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: short header", ErrTruncated)
	}
	if !bytes.Equal(data[:4], objMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if len(data) < 5 {
		return nil, fmt.Errorf("%w: missing version byte", ErrTruncated)
	}
	if data[4] != objFormatVersion {
		return nil, fmt.Errorf("%w: version %d (decoder speaks %d)", ErrVersion, data[4], objFormatVersion)
	}
	r := &byteReader{data: data, pos: 5}
	readFrame := func(what string, max uint64) (*byteReader, error) {
		n, err := r.uv()
		if err != nil {
			return nil, fmt.Errorf("%w: %s frame length", ErrCorrupt, what)
		}
		if err := integrity.CheckSize(what+" section", n, max); err != nil {
			return nil, retag(err)
		}
		if n > uint64(len(data)) || r.pos+int(n)+integrity.ChecksumLen > len(data) {
			return nil, fmt.Errorf("%w: %s section", ErrTruncated, what)
		}
		framed := data[r.pos : r.pos+int(n)+integrity.ChecksumLen]
		r.pos += int(n) + integrity.ChecksumLen
		sec, err := integrity.SplitChecksum(framed, what+" section")
		if err != nil {
			return nil, retag(err)
		}
		return &byteReader{data: sec}, nil
	}
	done := func(what string, sub *byteReader) error {
		if sub.pos != len(sub.data) {
			return fmt.Errorf("%w: %d trailing bytes in %s section", ErrCorrupt, len(sub.data)-sub.pos, what)
		}
		return nil
	}

	o := &Object{}

	// Metadata: name, data segment, globals, function table, passes.
	rm, err := readFrame("metadata", 1<<28)
	if err != nil {
		return nil, err
	}
	if o.Name, err = rm.str(); err != nil {
		return nil, err
	}
	ds, err := rm.uv()
	if err != nil || ds > 1<<31 {
		return nil, fmt.Errorf("%w: data size", ErrCorrupt)
	}
	o.DataSize = int(ds)
	ng, err := rm.uv()
	if err != nil || ng > 1<<20 {
		return nil, fmt.Errorf("%w: globals count", ErrCorrupt)
	}
	for i := uint64(0); i < ng; i++ {
		var g vm.GlobalData
		if g.Name, err = rm.str(); err != nil {
			return nil, err
		}
		addr, err := rm.uv()
		if err != nil {
			return nil, err
		}
		size, err := rm.uv()
		if err != nil || size > 1<<28 {
			return nil, fmt.Errorf("%w: global size", ErrCorrupt)
		}
		il, err := rm.uv()
		if err != nil || il > size {
			return nil, fmt.Errorf("%w: global init", ErrCorrupt)
		}
		g.Addr, g.Size = int32(addr), int(size)
		if g.Init, err = rm.bytes(int(il)); err != nil {
			return nil, err
		}
		o.Globals = append(o.Globals, g)
	}
	nf, err := rm.uv()
	if err != nil || nf > 1<<20 {
		return nil, fmt.Errorf("%w: function count", ErrCorrupt)
	}
	for i := uint64(0); i < nf; i++ {
		var f ObjFunc
		if f.Name, err = rm.str(); err != nil {
			return nil, err
		}
		eb, err := rm.uv()
		if err != nil {
			return nil, err
		}
		fr, err := rm.uv()
		if err != nil {
			return nil, err
		}
		f.EntryBlock, f.Frame = int32(eb), int32(fr)
		o.Funcs = append(o.Funcs, f)
	}
	passes, err := rm.uv()
	if err != nil {
		return nil, err
	}
	o.Passes = int(passes)
	if err := done("metadata", rm); err != nil {
		return nil, err
	}

	// Dictionary: implicit base set plus learned entries.
	rd, err := readFrame("dictionary", 1<<26)
	if err != nil {
		return nil, err
	}
	for op := 0; op < vm.NumOpcodes; op++ {
		o.Dict = append(o.Dict, basePattern(vm.Opcode(op)))
	}
	nLearned, err := rd.uv()
	if err != nil || nLearned > 1<<20 {
		return nil, fmt.Errorf("%w: dictionary count", ErrCorrupt)
	}
	for i := uint64(0); i < nLearned; i++ {
		p, err := readPattern(rd)
		if err != nil {
			return nil, err
		}
		o.Dict = append(o.Dict, p)
	}
	if err := done("dictionary", rd); err != nil {
		return nil, err
	}

	// Markov follower tables.
	rt, err := readFrame("tables", 1<<26)
	if err != nil {
		return nil, err
	}
	nCtx, err := rt.uv()
	if err != nil || nCtx != uint64(len(o.Dict))+1 {
		return nil, fmt.Errorf("%w: context count %d (dict %d)", ErrCorrupt, nCtx, len(o.Dict))
	}
	o.Contexts = make([][]int, nCtx)
	for ci := range o.Contexts {
		n, err := rt.uv()
		if err != nil || n > 255 {
			return nil, fmt.Errorf("%w: context table size", ErrCorrupt)
		}
		tbl := make([]int, n)
		for j := range tbl {
			pid, err := rt.uv()
			if err != nil || pid >= uint64(len(o.Dict)) {
				return nil, fmt.Errorf("%w: follower pattern id", ErrCorrupt)
			}
			tbl[j] = int(pid)
		}
		o.Contexts[ci] = tbl
	}
	if err := done("tables", rt); err != nil {
		return nil, err
	}

	// Block-offset table.
	rb, err := readFrame("blocks", 1<<27)
	if err != nil {
		return nil, err
	}
	nBlocks, err := rb.uv()
	if err != nil || nBlocks > 1<<26 {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	prev := int32(0)
	for i := uint64(0); i < nBlocks; i++ {
		d, err := rb.uv()
		if err != nil {
			return nil, err
		}
		prev += int32(d)
		o.Blocks = append(o.Blocks, prev)
	}
	if err := done("blocks", rb); err != nil {
		return nil, err
	}

	// Code stream: the frame content is the code itself.
	rc, err := readFrame("code", 1<<30)
	if err != nil {
		return nil, err
	}
	o.Code = rc.data

	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-r.pos)
	}
	return o, nil
}

// Func looks up a function by name.
func (o *Object) Func(name string) *ObjFunc {
	for i := range o.Funcs {
		if o.Funcs[i].Name == name {
			return &o.Funcs[i]
		}
	}
	return nil
}

// ---- unit decoding (decodeSegment's step) ----

// decodePlan is one dictionary pattern compiled for decode: its
// instructions with every fixed field already set, and its wildcard
// operands in stream order. A unit decodes by appending tmpl to a unit
// table and writing each operand into the copy as it is read.
type decodePlan struct {
	tmpl  []vm.Instr
	slots []planSlot
}

// planSlot is one wildcard operand: the template instruction it
// belongs to, the Instr field it fills, and whether the stream codes
// it as one register nibble (else a size nibble plus payload).
type planSlot struct {
	instr int32
	field operandField
	reg   bool
}

// decodePlans returns the object's decode plans, indexed by pattern
// id, compiling them from Dict on first use.
func (o *Object) decodePlans() []decodePlan {
	o.planOnce.Do(func() { o.plans = compilePlans(o.Dict) })
	return o.plans
}

// compilePlans compiles every pattern of dict into a decode plan. All
// templates share one backing array, as do all slots.
func compilePlans(dict []Pattern) []decodePlan {
	nIns, nSlots := 0, 0
	for i := range dict {
		nIns += len(dict[i].Seq)
		nSlots += dict[i].numUnfixed()
	}
	tmpl := make([]vm.Instr, 0, nIns)
	slots := make([]planSlot, 0, nSlots)
	plans := make([]decodePlan, len(dict))
	for pid := range dict {
		t0, s0 := len(tmpl), len(slots)
		for i := range dict[pid].Seq {
			pi := &dict[pid].Seq[i]
			ins := vm.Instr{Op: pi.Op}
			fields := pi.Op.Fields()
			for f, fx := range pi.Fixed {
				if fx {
					putOperand(&ins, fieldSlot(pi.Op, f), pi.Val[f])
				} else {
					slots = append(slots, planSlot{instr: int32(i), field: fieldSlot(pi.Op, f), reg: fields[f] == vm.FReg})
				}
			}
			tmpl = append(tmpl, ins)
		}
		plans[pid] = decodePlan{tmpl: tmpl[t0:len(tmpl):len(tmpl)], slots: slots[s0:len(slots):len(slots)]}
	}
	return plans
}

// decodeUnitIn decodes one unit at byte offset off of code with Markov
// context ctx (0 = block start, pid+1 otherwise). It returns the
// pattern id and the offset of the next unit; with a non-nil t it also
// appends the unit's instructions to t.code, its pattern's decode plan
// with every operand written in place. A nil t only validates, and
// allocates nothing. code is Obj.Code for whole-image predecode, or a
// faulted-in page at page-local offsets for demand paging: every basic
// block starts at Markov context 0, so any block-aligned byte range is
// independently decodable.
func (o *Object) decodeUnitIn(t *unitTable, code []byte, off int32, ctx int) (pid int, next int32, err error) {
	if off < 0 || int(off) >= len(code) {
		return 0, 0, fmt.Errorf("%w: unit offset %d", ErrCorrupt, off)
	}
	i := int(off)
	b := code[i]
	i++
	if b == 255 {
		v, n := binary.Uvarint(code[i:])
		if n <= 0 || v >= uint64(len(o.Dict)) {
			return 0, 0, fmt.Errorf("%w: escape pattern id at %d", ErrCorrupt, off)
		}
		pid = int(v)
		i += n
	} else {
		if ctx < 0 || ctx >= len(o.Contexts) || int(b) >= len(o.Contexts[ctx]) {
			return 0, 0, fmt.Errorf("%w: opcode index %d in context %d at %d", ErrCorrupt, b, ctx, off)
		}
		pid = o.Contexts[ctx][b]
	}
	pl := &o.decodePlans()[pid]
	var ins []vm.Instr
	if t != nil {
		first := len(t.code)
		t.code = append(t.code, pl.tmpl...)
		ins = t.code[first:]
	}

	// Operands follow as nibbles, high nibble first: a register is one
	// nibble; an immediate or target is a size nibble n <= 8 and n
	// payload nibbles, sign-extended from 4n bits. nib counts nibbles
	// from the start of code.
	nib, lim := 2*i, 2*len(code)
	for _, s := range pl.slots {
		if nib >= lim {
			return 0, 0, errNibbleUnderflow
		}
		v := int32(code[nib>>1]>>(4-4*(nib&1))) & 0xF
		nib++
		if !s.reg {
			n := int(v)
			if n > 8 {
				return 0, 0, fmt.Errorf("%w: size nibble %d at %d", ErrCorrupt, n, off)
			}
			if nib+n > lim {
				return 0, 0, errNibbleUnderflow
			}
			v = 0
			for end := nib + n; nib < end; nib++ {
				v = v<<4 | int32(code[nib>>1]>>(4-4*(nib&1)))&0xF
			}
			if n > 0 {
				bits := uint(4 * n)
				v = v << (32 - bits) >> (32 - bits)
			}
		}
		if t != nil {
			putOperand(&ins[s.instr], s.field, v)
		}
	}
	return pid, int32((nib + 1) >> 1), nil
}

var errNibbleUnderflow = fmt.Errorf("%w: nibble stream underflow", ErrCorrupt)

// ---- simple byte reader ----

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated (%d bytes wanted)", ErrCorrupt, n)
	}
	b := make([]byte, n)
	copy(b, r.data[r.pos:])
	r.pos += n
	return b, nil
}

func (r *byteReader) uv() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at %d", ErrCorrupt, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uv()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: string too long", ErrCorrupt)
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
