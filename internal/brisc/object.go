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

	// Decode plans, compiled from Dict by decodePlans on first use; the
	// Once makes concurrent first uses safe. Everything above is
	// immutable after construction. Decoded code is never kept here:
	// each executor decodes into a unitTable it owns.
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

// patternArena carves a dictionary's patterns out of three shared
// backing arrays — instructions, fixed flags and fixed values — so
// parsing a dictionary allocates a few arrays, not three per
// instruction. Each carved slice is capacity-limited, so an append to
// one never runs into the next.
type patternArena struct {
	seq   []PatInstr
	fixed []bool
	val   []int32
}

// newPatternArena sizes an arena for nBase base patterns plus a
// serialized dictionary of n bytes, in which each instruction takes at
// least two bytes (opcode and mask) and has at most three fields, so
// parsing it never grows the arena.
func newPatternArena(nBase, n int) patternArena {
	ni := nBase + n/2
	return patternArena{
		seq:   make([]PatInstr, 0, ni),
		fixed: make([]bool, 0, 3*ni),
		val:   make([]int32, 0, 3*ni),
	}
}

// instr returns an all-wildcard instruction for op.
func (a *patternArena) instr(op vm.Opcode) PatInstr {
	n := len(op.Fields())
	return PatInstr{Op: op, Fixed: carve(&a.fixed, n), Val: carve(&a.val, n)}
}

// base returns the all-wildcard pattern for op (basePattern's value).
func (a *patternArena) base(op vm.Opcode) Pattern {
	seq := carve(&a.seq, 1)
	seq[0] = a.instr(op)
	return Pattern{Seq: seq}
}

// carve returns the next n elements of the backing array *buf, starting
// a new array when *buf has no room left (the slices carved before keep
// the old one).
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, cap(b)))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

func readPattern(r *byteReader, a *patternArena) (Pattern, error) {
	nSeq, err := r.uv()
	if err != nil || nSeq == 0 || nSeq > 64 {
		return Pattern{}, fmt.Errorf("%w: pattern length", ErrCorrupt)
	}
	seq := carve(&a.seq, int(nSeq))
	for j := range seq {
		opb, err := r.byte()
		if err != nil {
			return Pattern{}, err
		}
		op := vm.Opcode(opb)
		if !op.Valid() {
			return Pattern{}, fmt.Errorf("%w: pattern opcode %d", ErrCorrupt, opb)
		}
		pi := a.instr(op)
		nFields := len(pi.Fixed)
		masks, err := r.view(max(1, (nFields+7)/8))
		if err != nil {
			return Pattern{}, err
		}
		for f := range pi.Fixed {
			if masks[f/8]&(1<<(uint(f)%8)) == 0 {
				continue
			}
			v, err := r.uv()
			if err != nil {
				return Pattern{}, err
			}
			pi.Fixed[f], pi.Val[f] = true, unzigzag32(v)
		}
		seq[j] = pi
	}
	return Pattern{Seq: seq}, nil
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
	dict := make([]Pattern, 0, min(n, uint64(len(body))))
	a := newPatternArena(0, len(body))
	for i := uint64(0); i < n; i++ {
		p, err := readPattern(r, &a)
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
// CRC32C trailer is verified before that section is parsed. The
// object's Code and each global's Init are views of data, which must
// not change afterwards; the names share one string, the Markov tables
// one array, and the learned patterns a few.
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
	// readFrame verifies and returns the next section; what names it
	// in errors.
	readFrame := func(what string, max uint64) (byteReader, error) {
		n, err := r.uv()
		if err != nil {
			return byteReader{}, fmt.Errorf("%w: %s length", ErrCorrupt, what)
		}
		if n > max {
			return byteReader{}, retag(integrity.CheckSize(what, n, max))
		}
		if n > uint64(len(data)) || r.pos+int(n)+integrity.ChecksumLen > len(data) {
			return byteReader{}, fmt.Errorf("%w: %s", ErrTruncated, what)
		}
		framed := data[r.pos : r.pos+int(n)+integrity.ChecksumLen]
		r.pos += int(n) + integrity.ChecksumLen
		sec, err := integrity.SplitChecksum(framed, what)
		if err != nil {
			return byteReader{}, retag(err)
		}
		return byteReader{data: sec}, nil
	}
	done := func(what string, sub *byteReader) error {
		if sub.pos != len(sub.data) {
			return fmt.Errorf("%w: %d trailing bytes in %s", ErrCorrupt, len(sub.data)-sub.pos, what)
		}
		return nil
	}

	o := &Object{}

	// Metadata: name, data segment, globals, function table, passes.
	rm, err := readFrame("metadata section", 1<<28)
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
	// Each global takes at least four bytes and each function three, so
	// the section's length caps both tables' presize.
	o.Globals = make([]vm.GlobalData, 0, min(ng, uint64(len(rm.data)/4)))
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
		if g.Init, err = rm.view(int(il)); err != nil {
			return nil, err
		}
		o.Globals = append(o.Globals, g)
	}
	nf, err := rm.uv()
	if err != nil || nf > 1<<20 {
		return nil, fmt.Errorf("%w: function count", ErrCorrupt)
	}
	o.Funcs = make([]ObjFunc, 0, min(nf, uint64(len(rm.data)/3)))
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
	if err := done("metadata section", &rm); err != nil {
		return nil, err
	}

	// Dictionary: implicit base set plus learned entries.
	rd, err := readFrame("dictionary section", 1<<26)
	if err != nil {
		return nil, err
	}
	nLearned, err := rd.uv()
	if err != nil || nLearned > 1<<20 {
		return nil, fmt.Errorf("%w: dictionary count", ErrCorrupt)
	}
	pa := newPatternArena(vm.NumOpcodes, len(rd.data))
	o.Dict = make([]Pattern, 0, vm.NumOpcodes+int(min(nLearned, uint64(len(rd.data)))))
	for op := 0; op < vm.NumOpcodes; op++ {
		o.Dict = append(o.Dict, pa.base(vm.Opcode(op)))
	}
	for i := uint64(0); i < nLearned; i++ {
		p, err := readPattern(&rd, &pa)
		if err != nil {
			return nil, err
		}
		o.Dict = append(o.Dict, p)
	}
	if err := done("dictionary section", &rd); err != nil {
		return nil, err
	}

	// Markov follower tables, carved out of one array: each follower
	// takes at least a byte of the section.
	rt, err := readFrame("tables section", 1<<26)
	if err != nil {
		return nil, err
	}
	nCtx, err := rt.uv()
	if err != nil || nCtx != uint64(len(o.Dict))+1 {
		return nil, fmt.Errorf("%w: context count %d (dict %d)", ErrCorrupt, nCtx, len(o.Dict))
	}
	o.Contexts = make([][]int, nCtx)
	followers := make([]int, 0, len(rt.data))
	for ci := range o.Contexts {
		n, err := rt.uv()
		if err != nil || n > 255 {
			return nil, fmt.Errorf("%w: context table size", ErrCorrupt)
		}
		tbl := carve(&followers, int(n))
		for j := range tbl {
			pid, err := rt.uv()
			if err != nil || pid >= uint64(len(o.Dict)) {
				return nil, fmt.Errorf("%w: follower pattern id", ErrCorrupt)
			}
			tbl[j] = int(pid)
		}
		o.Contexts[ci] = tbl
	}
	if err := done("tables section", &rt); err != nil {
		return nil, err
	}

	// Block-offset table: each offset delta takes at least a byte.
	rb, err := readFrame("blocks section", 1<<27)
	if err != nil {
		return nil, err
	}
	nBlocks, err := rb.uv()
	if err != nil || nBlocks > 1<<26 {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}
	o.Blocks = make([]int32, 0, min(nBlocks, uint64(len(rb.data))))
	prev := int32(0)
	for i := uint64(0); i < nBlocks; i++ {
		d, err := rb.uv()
		if err != nil {
			return nil, err
		}
		prev += int32(d)
		o.Blocks = append(o.Blocks, prev)
	}
	if err := done("blocks section", &rb); err != nil {
		return nil, err
	}

	// Code stream: the frame content is the code itself.
	rc, err := readFrame("code section", 1<<30)
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
	// regRuns serves the validate-only walk, which writes no operand:
	// regRuns[k] is the number of register nibbles before the plan's
	// k-th immediate or target operand, and the last entry those after
	// its final one, so the walk steps over each run in one add.
	regRuns []int32
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
// templates share one backing array, as do all slots and all register
// runs.
func compilePlans(dict []Pattern) []decodePlan {
	nIns, nSlots := 0, 0
	for i := range dict {
		nIns += len(dict[i].Seq)
		nSlots += dict[i].numUnfixed()
	}
	tmpl := make([]vm.Instr, 0, nIns)
	slots := make([]planSlot, 0, nSlots)
	runs := make([]int32, 0, nSlots+len(dict)) // at most one per operand, plus one per plan
	plans := make([]decodePlan, len(dict))
	for pid := range dict {
		t0, s0, r0 := len(tmpl), len(slots), len(runs)
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
		run := int32(0)
		for _, sl := range slots[s0:] {
			if sl.reg {
				run++
			} else {
				runs, run = append(runs, run), 0
			}
		}
		runs = append(runs, run)
		plans[pid] = decodePlan{
			tmpl:    tmpl[t0:len(tmpl):len(tmpl)],
			slots:   slots[s0:len(slots):len(slots)],
			regRuns: runs[r0:len(runs):len(runs)],
		}
	}
	return plans
}

// decodeUnitIn decodes one unit at byte offset off of code with Markov
// context ctx (0 = block start, pid+1 otherwise). It returns the
// pattern id and the offset of the next unit; with a non-nil dst it
// also appends the unit's instructions to *dst, its pattern's decode
// plan with every operand written in place. A nil dst only validates:
// skipOperands steps over the operands, and nothing is allocated. code is Obj.Code for a whole-image decode, or
// a faulted-in page at page-local offsets for demand paging: every
// basic block starts at Markov context 0, so any block-aligned byte
// range is independently decodable.
func (o *Object) decodeUnitIn(dst *[]vm.Instr, code []byte, off int32, ctx int) (pid int, next int32, err error) {
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

	// Operands follow as nibbles, high nibble first: a register is one
	// nibble; an immediate or target is a size nibble n <= 8 and n
	// payload nibbles, sign-extended from 4n bits. nib counts nibbles
	// from the start of code.
	nib, lim := 2*i, 2*len(code)
	if dst == nil {
		next, err = skipOperands(pl.regRuns, code, nib, off)
		return pid, next, err
	}
	first := len(*dst)
	*dst = append(*dst, pl.tmpl...)
	ins := (*dst)[first:]
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
		putOperand(&ins[s.instr], s.field, v)
	}
	return pid, int32((nib + 1) >> 1), nil
}

// skipOperands is decodeUnitIn's operand walk without a destination:
// it steps over the unit's operands from nibble nib of code, reading
// only size nibbles, and returns the offset of the next unit. A run of
// r register nibbles underflows exactly when reading them one by one
// would, nib+r > lim, so it fails where the full decode does, with the
// same errors.
func skipOperands(regRuns []int32, code []byte, nib int, off int32) (int32, error) {
	lim := 2 * len(code)
	last := len(regRuns) - 1
	for k, r := range regRuns {
		if nib += int(r); nib > lim {
			return 0, errNibbleUnderflow
		}
		if k == last {
			break
		}
		if nib >= lim {
			return 0, errNibbleUnderflow
		}
		n := int(code[nib>>1]>>(4-4*(nib&1))) & 0xF
		nib++
		if n > 8 {
			return 0, fmt.Errorf("%w: size nibble %d at %d", ErrCorrupt, n, off)
		}
		if nib+n > lim {
			return 0, errNibbleUnderflow
		}
		nib += n
	}
	return int32((nib + 1) >> 1), nil
}

var errNibbleUnderflow = fmt.Errorf("%w: nibble stream underflow", ErrCorrupt)

// ---- simple byte reader ----

type byteReader struct {
	data []byte
	pos  int
	// text holds data's bytes as one string, made by the first str
	// call; every string str returns is a substring of it, so a
	// section's names share one allocation.
	text string
}

func (r *byteReader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// view returns the next n bytes as a capacity-limited view of data,
// not a copy.
func (r *byteReader) view(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated (%d bytes wanted)", ErrCorrupt, n)
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
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
	start := r.pos
	if _, err := r.view(int(n)); err != nil {
		return "", err
	}
	if r.text == "" {
		r.text = string(r.data)
	}
	return r.text[start:r.pos], nil
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
