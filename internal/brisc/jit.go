package brisc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/telemetry"
	"repro/internal/vm"
)

// JIT translates a BRISC object back into a directly executable VM
// program — the paper's just-in-time native code generation path. The
// translation is one walk over the image's segments, which Markov-
// decodes each unit straight into the program's code and records each
// block's first instruction, then one pass over the code, which
// resolves block-relative targets to instruction indices and collects
// the block starts. It builds no unit table: the returned Code is the
// decoded array itself, owned by the caller, and Globals is the
// object's own read-only slice. Measured throughput of this function is
// the "MB/sec of produced code" figure in the results table.
func JIT(o *Object) (*vm.Program, error) {
	return JITTraced(o, nil)
}

// JITTraced is JIT under a "brisc.jit" span recording the compressed
// input size, units decoded, and instructions produced. rec may be nil.
func JITTraced(o *Object, rec *telemetry.Recorder) (*vm.Program, error) {
	// A nil or disabled recorder must not pay for the attribute.
	var sp *telemetry.Span
	if rec.Enabled() {
		sp = rec.StartSpan("brisc.jit", telemetry.Int("bytes_in", int64(len(o.Code))))
	}
	defer sp.End()
	code, blockInstr, units, err := o.jitDecode()
	if err != nil {
		return nil, err
	}
	p := &vm.Program{
		Name:     o.Name,
		Code:     code,
		Globals:  o.Globals,
		DataSize: o.DataSize,
		Funcs:    make([]vm.FuncInfo, len(o.Funcs)),
	}
	// The blocks a branch, jump or function entry names; their first
	// instructions and the instruction after each block ender are the
	// block starts.
	marked := make([]bool, len(blockInstr))
	nMarked := 0
	mark := func(b int32) {
		if !marked[b] {
			marked[b] = true
			nMarked++
		}
	}
	// Resolve block-relative targets; an opcode has at most one target
	// field, and it lives in Target. ends starts BlockStarts' buffer,
	// which mergeStarts needs to hold ends and the marked blocks: 1.32–
	// 1.34 entries per block on wep, lcc and gcc, so 1.5 per block holds
	// them without regrowing.
	ends := make([]int, 0, len(blockInstr)+len(blockInstr)/2+1)
	for i := range code {
		ins := &code[i]
		fl := opFlow[ins.Op]
		if fl&flowTarget != 0 {
			b := ins.Target
			if b < 0 || int(b) >= len(blockInstr) {
				return nil, fmt.Errorf("%w: block target %d out of range", ErrCorrupt, b)
			}
			ins.Target = blockInstr[b]
			if fl&flowMark != 0 {
				mark(b)
			}
		}
		if fl&flowEnds != 0 && i+1 < len(code) {
			ends = append(ends, i+1)
		}
	}
	// Function extents: entries from the table, ends from the next
	// function's entry in address order.
	type fe struct {
		fi    int
		entry int
	}
	order := make([]fe, len(o.Funcs))
	for i, f := range o.Funcs {
		if f.EntryBlock < 0 || int(f.EntryBlock) >= len(blockInstr) {
			return nil, fmt.Errorf("%w: function %s entry block %d", ErrCorrupt, f.Name, f.EntryBlock)
		}
		mark(f.EntryBlock)
		order[i] = fe{i, int(blockInstr[f.EntryBlock])}
	}
	slices.SortStableFunc(order, func(a, b fe) int { return cmp.Compare(a.entry, b.entry) })
	for k, e := range order {
		end := len(code)
		if k+1 < len(order) {
			end = order[k+1].entry
		}
		p.Funcs[e.fi] = vm.FuncInfo{
			Name:  o.Funcs[e.fi].Name,
			Entry: e.entry,
			End:   end,
			Frame: int(o.Funcs[e.fi].Frame),
		}
	}
	p.BlockStarts = mergeStarts(ends, blockInstr, marked, nMarked)
	if rec.Enabled() {
		sp.SetAttr(
			telemetry.Int("units", int64(units)),
			telemetry.Int("instrs_out", int64(len(code))),
		)
		rec.Add("brisc.jit.units", int64(units))
		rec.Add("brisc.jit.instrs_out", int64(len(code)))
	}
	return p, nil
}

// jitDecode is the JIT's decode: the whole-image walk (decodeWhole)
// into an instruction array reserved as a whole-image unit table's is,
// plus each block's first instruction index, and nothing else. It
// returns the number of units decoded.
func (o *Object) jitDecode() (code []vm.Instr, blockInstr []int32, units int, err error) {
	code = make([]vm.Instr, 0, len(o.Code)*instrsPerByteNum/instrsPerByteDen)
	blockInstr = make([]int32, len(o.Blocks))
	if units, err = o.decodeWhole(nil, &code, blockInstr); err != nil {
		return nil, nil, 0, err
	}
	return code, blockInstr, units, nil
}

// Per-opcode flags for the JIT's pass over its code, one table lookup
// per instruction. They follow vm.Program.ComputeBlockStarts, whose set
// the JIT's BlockStarts must equal.
const (
	flowTarget = 1 << iota // Target holds a block index (an FTgt field)
	flowMark               // the target block starts a block (branches, JMP)
	flowEnds               // the next instruction starts a block
)

var opFlow = func() (f [256]uint8) {
	for op := vm.Opcode(0); int(op) < vm.NumOpcodes; op++ {
		if slices.Contains(op.Fields(), vm.FTgt) {
			f[op] |= flowTarget
		}
		if op.IsBranch() || op == vm.JMP {
			f[op] |= flowMark
		}
		if op.EndsBlock() {
			f[op] |= flowEnds
		}
	}
	return f
}()

// mergeStarts returns ComputeBlockStarts' set, ascending and without
// duplicates, from its two ascending sources: ends, the instruction
// after each block ender, and the first instruction of each marked
// block, of which there are nMarked. Both are inside the code: every
// segment decodes to at least one instruction. It merges in place in
// ends' buffer, grown once if a hostile image needs more room: ends
// moves up by nMarked, so the merged output never overtakes what is
// still to be read.
func mergeStarts(ends []int, blockInstr []int32, marked []bool, nMarked int) []int {
	n := len(ends)
	buf := slices.Grow(ends, nMarked)[:n+nMarked]
	copy(buf[nMarked:], buf[:n])
	out, j := buf[:0], nMarked
	add := func(v int) {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	for b, m := range marked {
		if !m {
			continue
		}
		v := int(blockInstr[b])
		for ; j < len(buf) && buf[j] < v; j++ {
			add(buf[j])
		}
		add(v)
	}
	for ; j < len(buf); j++ {
		add(buf[j])
	}
	return out
}
