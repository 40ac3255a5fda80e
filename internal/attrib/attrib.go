// Package attrib is the byte-attribution layer: it maps every byte of
// a WIR2 container or a BRISC image back to its origin — per stream
// segment, per opcode/pattern, per source function, and per dictionary
// entry — with the invariant that attributed bytes sum exactly to the
// artifact size (Check), plus an entropy report comparing actual coded
// bits against order-0 and order-1 entropy per stream, the paper's §5
// accounting turned into an inspectable data structure.
//
// The package reads the low-level partitions produced by wire.Inspect
// and brisc.Inspect; cmd/compscope renders its reports.
package attrib

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/telemetry"
)

// Artifact kinds.
const (
	KindWire  = "wir2"
	KindBrisc = "brisc"
)

// Component is one contiguous, named byte range of the attributed
// space. The Components of a Report partition it exactly.
type Component struct {
	Name  string
	Class string
	Start int
	Bytes int
}

// StreamStat is the entropy accounting of one coded symbol stream:
// what its symbols actually cost versus their order-0 and order-1
// entropy (the headroom a better model could still claim).
type StreamStat struct {
	Name       string
	Bytes      int     // full framed section bytes in the artifact
	Symbols    int     // symbols coded
	ActualBits int64   // bits spent on symbol payloads
	TableBits  int64   // bits spent on the code table (0 if none)
	H0Bits     float64 // order-0 entropy of the symbol sequence
	H1Bits     float64 // order-1 (conditional) entropy
}

// FuncStat attributes coded payload to one source function.
type FuncStat struct {
	Name  string
	Units int   // trees (wire) or code units (brisc)
	Bits  int64 // exact payload bits attributed to the function
}

// OpcodeStat joins one opcode's static footprint with (for hot
// reports) its dynamic dispatch count.
type OpcodeStat struct {
	Name   string
	Static int64 // static occurrences in the artifact
	Bits   int64 // payload bits attributed to the opcode's stream(s)
}

// DictStat audits one dictionary entry's economics after the fact:
// SavedP is the realized stream saving versus base-pattern encoding
// (the paper's P), EntryBytes the serialized table cost actually paid,
// ModelW the paper's working-set estimate W, and Net = SavedP −
// EntryBytes.
type DictStat struct {
	Pid         int
	Pattern     string
	Learned     bool
	Units       int // units encoded with this entry
	StreamBytes int // bytes those units occupy
	BaseBytes   int // bytes they would occupy with base patterns only
	SavedP      int
	EntryBytes  int
	ModelW      int
	Net         int
}

// Report is the complete attribution of one artifact.
type Report struct {
	Kind       string
	Source     string
	FileBytes  int    // the artifact on disk
	TotalBytes int    // the attributed space (wire: container; brisc: file)
	Space      string // what TotalBytes measures, for display
	Components []Component
	Streams    []StreamStat
	Funcs      []FuncStat
	Opcodes    []OpcodeStat
	Dict       []DictStat
}

// Check enforces the attribution invariant: components are contiguous
// from byte 0 and sum exactly to TotalBytes.
func (r *Report) Check() error {
	pos, sum := 0, 0
	for _, c := range r.Components {
		if c.Start != pos {
			return fmt.Errorf("attrib: gap at byte %d (component %q starts at %d)", pos, c.Name, c.Start)
		}
		pos = c.Start + c.Bytes
		sum += c.Bytes
	}
	if sum != r.TotalBytes {
		return fmt.Errorf("attrib: attributed %d bytes, artifact %s has %d", sum, r.Space, r.TotalBytes)
	}
	return nil
}

// ByClass aggregates component bytes by class, with classes in first-
// appearance order.
func (r *Report) ByClass() ([]string, map[string]int) {
	var order []string
	sums := map[string]int{}
	for _, c := range r.Components {
		if _, ok := sums[c.Class]; !ok {
			order = append(order, c.Class)
		}
		sums[c.Class] += c.Bytes
	}
	return order, sums
}

// Publish records the report as telemetry gauges/counters under
// attrib.<kind>., so the standard summary and JSON sinks render it.
func (r *Report) Publish(rec *telemetry.Recorder) {
	if !rec.Enabled() {
		return
	}
	p := "attrib." + r.Kind + "."
	rec.SetGauge(p+"file_bytes", float64(r.FileBytes))
	rec.SetGauge(p+"total_bytes", float64(r.TotalBytes))
	order, sums := r.ByClass()
	for _, class := range order {
		rec.SetGauge(p+"class."+class+".bytes", float64(sums[class]))
	}
	for _, st := range r.Streams {
		sp := p + "stream." + st.Name + "."
		rec.SetGauge(sp+"bytes", float64(st.Bytes))
		rec.SetGauge(sp+"actual_bits", float64(st.ActualBits))
		rec.SetGauge(sp+"h0_bits", st.H0Bits)
		rec.SetGauge(sp+"h1_bits", st.H1Bits)
	}
	for _, d := range r.Dict {
		if d.Learned {
			rec.SetGauge(fmt.Sprintf("%sdict.%d.net_bytes", p, d.Pid), float64(d.Net))
		}
	}
}

// Format renders the report as human-readable tables.
func Format(w io.Writer, r *Report) {
	fmt.Fprintf(w, "%s  %s artifact  %d bytes on disk, attributing %d %s bytes\n",
		r.Source, r.Kind, r.FileBytes, r.TotalBytes, r.Space)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  section\tbytes\t%%\n")
	order, sums := r.ByClass()
	total := 0
	for _, class := range order {
		fmt.Fprintf(tw, "  %s\t%d\t%.1f%%\n", class, sums[class], pct(sums[class], r.TotalBytes))
		total += sums[class]
	}
	fmt.Fprintf(tw, "  total\t%d\t%.1f%%\n", total, pct(total, r.TotalBytes))
	tw.Flush()

	if len(r.Streams) > 0 {
		fmt.Fprintf(w, "  streams (actual vs order-0 / order-1 entropy):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  stream\tsyms\tbytes\tactual\tH0\tH1\theadroom\n")
		for _, st := range topStreams(r.Streams, 12) {
			head := "-"
			if st.ActualBits > 0 && st.H1Bits > 0 {
				head = fmt.Sprintf("%.1f%%", 100*(1-st.H1Bits/float64(st.ActualBits)))
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%db\t%.0fb\t%.0fb\t%s\n",
				st.Name, st.Symbols, st.Bytes, st.ActualBits, st.H0Bits, st.H1Bits, head)
		}
		tw.Flush()
	}

	if len(r.Funcs) > 0 {
		fmt.Fprintf(w, "  functions (payload bits, largest first):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		funcs := append([]FuncStat(nil), r.Funcs...)
		sort.SliceStable(funcs, func(i, j int) bool { return funcs[i].Bits > funcs[j].Bits })
		if len(funcs) > 10 {
			funcs = funcs[:10]
		}
		for _, f := range funcs {
			fmt.Fprintf(tw, "  %s\t%d units\t%d bits\t(%.1f bytes)\n", f.Name, f.Units, f.Bits, float64(f.Bits)/8)
		}
		tw.Flush()
	}

	if learned := learnedDict(r.Dict); len(learned) > 0 {
		fmt.Fprintf(w, "  dictionary economics (P = realized saving, W = table cost, net = P − entry bytes):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  entry\tunits\tstream\tbase\tP\tentry\tW\tnet\tpattern\n")
		sort.SliceStable(learned, func(i, j int) bool { return learned[i].Net > learned[j].Net })
		show := learned
		if len(show) > 15 {
			show = show[:15]
		}
		for _, d := range show {
			fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\t%+d\t%s\n",
				d.Pid, d.Units, d.StreamBytes, d.BaseBytes, d.SavedP, d.EntryBytes, d.ModelW, d.Net, d.Pattern)
		}
		if len(learned) > len(show) {
			fmt.Fprintf(tw, "  …\t%d more entries\n", len(learned)-len(show))
		}
		tw.Flush()
	}
}

func learnedDict(dict []DictStat) []DictStat {
	var out []DictStat
	for _, d := range dict {
		if d.Learned {
			out = append(out, d)
		}
	}
	return out
}

// topStreams returns up to n streams by descending byte size, keeping
// the shape stream (index 0) first when present.
func topStreams(streams []StreamStat, n int) []StreamStat {
	out := append([]StreamStat(nil), streams...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// uvarintLen mirrors the serializers' varint cost model.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func zigzag32(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }
