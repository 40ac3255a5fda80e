package attrib

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/brisc"
)

// HotEntry joins one dictionary entry's static footprint with its
// dynamic execution count. Density (dispatches per static byte) is the
// ranking signal for biasing pattern selection toward hot code: a
// high-density entry earns its table bytes at run time, a zero-density
// one is pure size-only value.
type HotEntry struct {
	Pid         int     `json:"pid"`
	Pattern     string  `json:"pattern"`
	Learned     bool    `json:"learned"`
	StaticUnits int     `json:"static_units"`
	StaticBytes int     `json:"static_bytes"`
	DynCount    int64   `json:"executed"` // units executed (interpreter trace)
	Density     float64 `json:"density"`
}

// HotOp joins one VM opcode's static occurrence count with the
// interpreter's dispatch counter.
type HotOp struct {
	Name     string `json:"name"`
	Static   int64  `json:"static"`
	Dispatch int64  `json:"dispatch"`
}

// HotBlock joins one basic block's byte range in the compressed code
// stream with its dynamic execution weight (units executed inside the
// block). This is the machine-readable profile the execute-in-place
// layout pass consumes: hot-together blocks are packed onto shared
// pages (see brisc.XIPOptions.BlockCounts).
type HotBlock struct {
	Off        int32 `json:"off"`
	Bytes      int32 `json:"bytes"`
	Executions int64 `json:"executions"`
}

// HotReport is the static-times-dynamic view of one BRISC artifact.
type HotReport struct {
	Source   string     `json:"source"`
	Entries  []HotEntry `json:"entries"`        // ranked by density, then dynamic count
	Ops      []HotOp    `json:"ops"`            // ranked by dispatch count
	Blocks   []HotBlock `json:"blocks"`         // basic blocks in code order
	TotalDyn int64      `json:"units_executed"` // units executed
}

// Hot joins a BRISC inspection with runtime data: unitCounts maps code
// offsets (as delivered by Interp.Trace) to execution counts, and
// dispatch maps VM opcode names to the interpreter's per-opcode
// dispatch counters (brisc.interp.dispatch.*).
func Hot(source string, insp *brisc.Inspection, unitCounts map[int32]int64, dispatch map[string]int64) *HotReport {
	agg := map[int]*HotEntry{}
	var total int64
	for _, u := range insp.Units {
		e := agg[u.Pid]
		if e == nil {
			d := insp.Dict[u.Pid]
			e = &HotEntry{Pid: u.Pid, Pattern: d.Pattern, Learned: d.Learned}
			agg[u.Pid] = e
		}
		e.StaticUnits++
		e.StaticBytes += int(u.Len)
		n := unitCounts[u.Off]
		e.DynCount += n
		total += n
	}
	hr := &HotReport{Source: source, TotalDyn: total}
	for _, e := range agg {
		e.Density = float64(e.DynCount) / float64(e.StaticBytes)
		hr.Entries = append(hr.Entries, *e)
	}
	sort.Slice(hr.Entries, func(i, j int) bool {
		a, b := hr.Entries[i], hr.Entries[j]
		if a.Density != b.Density {
			return a.Density > b.Density
		}
		if a.DynCount != b.DynCount {
			return a.DynCount > b.DynCount
		}
		return a.Pid < b.Pid
	})
	for op, static := range staticOps(insp) {
		hr.Ops = append(hr.Ops, HotOp{Name: op, Static: static, Dispatch: dispatch[op]})
	}
	sort.Slice(hr.Ops, func(i, j int) bool {
		if hr.Ops[i].Dispatch != hr.Ops[j].Dispatch {
			return hr.Ops[i].Dispatch > hr.Ops[j].Dispatch
		}
		return hr.Ops[i].Name < hr.Ops[j].Name
	})
	if obj := insp.Obj; obj != nil {
		bc := brisc.BlockCountsFromTrace(obj, unitCounts)
		offs := make([]int32, 0, len(obj.Blocks))
		seen := map[int32]bool{}
		for _, off := range obj.Blocks {
			if !seen[off] {
				seen[off] = true
				offs = append(offs, off)
			}
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for i, off := range offs {
			end := int32(len(obj.Code))
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			hr.Blocks = append(hr.Blocks, HotBlock{Off: off, Bytes: end - off, Executions: bc[off]})
		}
	}
	return hr
}

// BlockCounts flattens the per-block profile into the map
// brisc.XIPOptions.BlockCounts takes.
func (hr *HotReport) BlockCounts() map[int32]int64 {
	out := make(map[int32]int64, len(hr.Blocks))
	for _, b := range hr.Blocks {
		out[b.Off] = b.Executions
	}
	return out
}

// WriteHotJSON emits the report as indented JSON — the machine-
// readable form `compscope hot -json` produces and `briscrun -layout`
// consumes.
func WriteHotJSON(w io.Writer, hr *HotReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(hr)
}

// ParseHotJSON reads a report written by WriteHotJSON.
func ParseHotJSON(data []byte) (*HotReport, error) {
	var hr HotReport
	if err := json.Unmarshal(data, &hr); err != nil {
		return nil, fmt.Errorf("attrib: hot profile: %w", err)
	}
	return &hr, nil
}

func staticOps(insp *brisc.Inspection) map[string]int64 {
	out := map[string]int64{}
	for op, n := range insp.OpStatic {
		if n > 0 {
			out[opName(op)] = n
		}
	}
	return out
}

// FormatHot renders the joined static/dynamic ranking.
func FormatHot(w io.Writer, hr *HotReport) {
	fmt.Fprintf(w, "%s  %d units executed\n", hr.Source, hr.TotalDyn)
	fmt.Fprintf(w, "  dictionary entries by dynamic density (executions per static byte):\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  entry\tstatic units\tstatic bytes\texecuted\tdensity\tpattern\n")
	shown := 0
	for _, e := range hr.Entries {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%.2f\t%s\n",
			e.Pid, e.StaticUnits, e.StaticBytes, e.DynCount, e.Density, e.Pattern)
		if shown++; shown >= 15 {
			break
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  opcode dispatch (static occurrences vs dynamic dispatches):\n")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  opcode\tstatic\tdispatched\n")
	shown = 0
	for _, op := range hr.Ops {
		fmt.Fprintf(tw, "  %s\t%d\t%d\n", op.Name, op.Static, op.Dispatch)
		if shown++; shown >= 15 {
			break
		}
	}
	tw.Flush()
}
