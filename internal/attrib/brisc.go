package attrib

import (
	"sort"

	"repro/internal/brisc"
	"repro/internal/vm"
)

// briscReport attributes every byte of a serialized BRISC image. The
// attributed space is the file itself (BRISC has no final recoding
// stage), down to one component per learned dictionary entry.
func briscReport(source string, insp *brisc.Inspection) (*Report, error) {
	r := &Report{
		Kind:       KindBrisc,
		Source:     source,
		FileBytes:  insp.FileBytes,
		TotalBytes: insp.FileBytes,
		Space:      "file",
	}
	for _, s := range insp.Sections {
		r.Components = append(r.Components, Component{Name: s.Name, Class: s.Class, Start: s.Start, Bytes: s.Len})
	}
	r.Streams = briscStreams(insp)
	r.Funcs = briscFuncs(insp)
	for op, n := range insp.OpStatic {
		if n > 0 {
			r.Opcodes = append(r.Opcodes, OpcodeStat{Name: vm.Opcode(op).Name(), Static: n})
		}
	}
	r.Dict = briscDict(insp)
	return r, r.Check()
}

// briscStreams builds the two entropy views of the code stream: the
// pattern-id sequence behind the one-byte Markov-coded opcodes (order-1
// entropy shows what the follower tables already exploit), and the
// operand nibble stream.
func briscStreams(insp *brisc.Inspection) []StreamStat {
	code := insp.Obj.Code
	var pids []int
	var nibbles []int
	var opcodeBits, operandBits int64
	opcodeBytes, operandBytes := 0, 0
	for _, u := range insp.Units {
		pids = append(pids, u.Pid)
		ob := 1
		if u.Escape {
			ob = 1 + uvarintLen(uint64(u.Pid))
		}
		opcodeBytes += ob
		operandBytes += int(u.Len) - ob
		for _, b := range code[int(u.Off)+ob : u.Off+u.Len] {
			nibbles = append(nibbles, int(b>>4), int(b&0xF))
		}
	}
	opcodeBits = int64(opcodeBytes) * 8
	operandBits = int64(operandBytes) * 8
	return []StreamStat{
		{
			Name: "code.opcodes", Bytes: opcodeBytes, Symbols: len(pids),
			ActualBits: opcodeBits,
			H0Bits:     order0Bits(pids),
			H1Bits:     order1Bits(pids),
		},
		{
			Name: "code.operands", Bytes: operandBytes, Symbols: len(nibbles),
			ActualBits: operandBits,
			H0Bits:     order0Bits(nibbles),
			H1Bits:     order1Bits(nibbles),
		},
	}
}

// briscFuncs attributes code-stream bytes to source functions. A
// function's extent runs from its entry block's byte offset to the
// next function's entry; units before the first entry (the start stub)
// are reported as "(startup)".
func briscFuncs(insp *brisc.Inspection) []FuncStat {
	o := insp.Obj
	type span struct {
		name  string
		start int32
	}
	var spans []span
	for _, f := range o.Funcs {
		if int(f.EntryBlock) < len(o.Blocks) {
			spans = append(spans, span{f.Name, o.Blocks[f.EntryBlock]})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if len(spans) == 0 || spans[0].start > 0 {
		spans = append([]span{{"(startup)", 0}}, spans...)
	}
	stats := make([]FuncStat, len(spans))
	for i, s := range spans {
		stats[i].Name = s.name
	}
	si := 0
	for _, u := range insp.Units {
		for si+1 < len(spans) && u.Off >= spans[si+1].start {
			si++
		}
		stats[si].Units++
		stats[si].Bits += int64(u.Len) * 8
	}
	return stats
}

// briscDict joins the static dictionary cost model with the realized
// per-entry stream accounting: P (bytes saved versus base-pattern
// encoding of the same instructions) against the entry's serialized
// bytes and the paper's working-set W.
func briscDict(insp *brisc.Inspection) []DictStat {
	stats := make([]DictStat, len(insp.Dict))
	for i, d := range insp.Dict {
		stats[i] = DictStat{
			Pid:        d.Pid,
			Pattern:    d.Pattern,
			Learned:    d.Learned,
			EntryBytes: d.EntryBytes,
			ModelW:     d.ModelW,
		}
	}
	for _, u := range insp.Units {
		s := &stats[u.Pid]
		s.Units++
		s.StreamBytes += int(u.Len)
		s.BaseBytes += int(u.BaseLen)
	}
	for i := range stats {
		stats[i].SavedP = stats[i].BaseBytes - stats[i].StreamBytes
		stats[i].Net = stats[i].SavedP - stats[i].EntryBytes
	}
	return stats
}
