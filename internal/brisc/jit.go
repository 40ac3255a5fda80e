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
// translation is a single linear decode: Markov-decode each unit into
// its pattern's decode plan, then resolve block-relative targets to
// instruction indices in place. Every call decodes the whole image
// into a table it owns (decodeImage, the interpreter's decode), so the
// returned Code is the decoded table itself; Globals is the object's
// own read-only slice. Measured throughput of this function is the
// "MB/sec of produced code" figure in the results table.
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
	t, err := o.decodeImage()
	if err != nil {
		return nil, err
	}
	code := t.code
	// Block index -> first instruction index. Every block offset starts
	// a segment, so a decoded image has a unit there.
	blockInstr := make([]int32, len(o.Blocks))
	for b, off := range o.Blocks {
		blockInstr[b] = t.units[t.idx[off]].first
	}
	// Resolve block-relative targets; an opcode has at most one target
	// field, and it lives in Target.
	for i := range code {
		ins := &code[i]
		for _, f := range ins.Op.Fields() {
			if f != vm.FTgt {
				continue
			}
			b := ins.Target
			if b < 0 || int(b) >= len(blockInstr) {
				return nil, fmt.Errorf("%w: block target %d out of range", ErrCorrupt, b)
			}
			ins.Target = blockInstr[b]
			break
		}
	}
	p := &vm.Program{
		Name:     o.Name,
		Code:     code,
		Globals:  o.Globals,
		DataSize: o.DataSize,
		Funcs:    make([]vm.FuncInfo, len(o.Funcs)),
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
	p.ComputeBlockStarts()
	if rec.Enabled() {
		units := len(t.units)
		sp.SetAttr(
			telemetry.Int("units", int64(units)),
			telemetry.Int("instrs_out", int64(len(code))),
		)
		rec.Add("brisc.jit.units", int64(units))
		rec.Add("brisc.jit.instrs_out", int64(len(code)))
	}
	return p, nil
}
