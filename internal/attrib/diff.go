package attrib

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Delta is one named quantity compared across two reports.
type Delta struct {
	Name     string
	Old, New int
}

// D returns the signed byte delta.
func (d Delta) D() int { return d.New - d.Old }

// DiffReport ranks where two artifacts' bytes moved: per section
// class, per stream, and per dictionary entry (matched by pattern, so
// adopted/dropped entries are called out explicitly).
type DiffReport struct {
	Kind               string
	OldSource          string
	NewSource          string
	OldTotal, NewTotal int
	Classes            []Delta    // section classes, ranked by |delta|
	Streams            []Delta    // streams, ranked by |delta|
	DictChanged        []Delta    // entries in both, ranked by |delta| (bytes = stream + entry)
	DictDropped        []DictStat // entries only in the old artifact
	DictAdded          []DictStat // entries only in the new artifact
}

// Diff compares two attribution reports of the same kind.
func Diff(old, new *Report) (*DiffReport, error) {
	if old.Kind != new.Kind {
		return nil, fmt.Errorf("attrib: cannot diff %s against %s", old.Kind, new.Kind)
	}
	d := &DiffReport{
		Kind:      old.Kind,
		OldSource: old.Source, NewSource: new.Source,
		OldTotal: old.TotalBytes, NewTotal: new.TotalBytes,
	}

	_, oldClasses := old.ByClass()
	_, newClasses := new.ByClass()
	d.Classes = rankDeltas(oldClasses, newClasses)

	oldStreams := map[string]int{}
	for _, st := range old.Streams {
		oldStreams[st.Name] = st.Bytes
	}
	newStreams := map[string]int{}
	for _, st := range new.Streams {
		newStreams[st.Name] = st.Bytes
	}
	d.Streams = rankDeltas(oldStreams, newStreams)

	// Dictionary entries match by pattern text, not pid: adoption
	// order shifts renumber entries between artifacts.
	oldDict := map[string]DictStat{}
	for _, ds := range learnedDict(old.Dict) {
		oldDict[ds.Pattern] = ds
	}
	newDict := map[string]DictStat{}
	for _, ds := range learnedDict(new.Dict) {
		newDict[ds.Pattern] = ds
	}
	dictBytes := func(ds DictStat) int { return ds.StreamBytes + ds.EntryBytes }
	for pat, ods := range oldDict {
		if nds, ok := newDict[pat]; ok {
			d.DictChanged = append(d.DictChanged, Delta{Name: pat, Old: dictBytes(ods), New: dictBytes(nds)})
		} else {
			d.DictDropped = append(d.DictDropped, ods)
		}
	}
	for pat, nds := range newDict {
		if _, ok := oldDict[pat]; !ok {
			d.DictAdded = append(d.DictAdded, nds)
		}
	}
	sortRank(d.DictChanged)
	sort.Slice(d.DictDropped, func(i, j int) bool { return dictBytes(d.DictDropped[i]) > dictBytes(d.DictDropped[j]) })
	sort.Slice(d.DictAdded, func(i, j int) bool { return dictBytes(d.DictAdded[i]) > dictBytes(d.DictAdded[j]) })
	return d, nil
}

func rankDeltas(old, new map[string]int) []Delta {
	seen := map[string]bool{}
	var out []Delta
	for name, ov := range old {
		out = append(out, Delta{Name: name, Old: ov, New: new[name]})
		seen[name] = true
	}
	for name, nv := range new {
		if !seen[name] {
			out = append(out, Delta{Name: name, New: nv})
		}
	}
	sortRank(out)
	return out
}

// sortRank orders by |delta| descending, name ascending for ties, so
// the biggest movers lead the report deterministically.
func sortRank(ds []Delta) {
	sort.Slice(ds, func(i, j int) bool {
		ai, aj := abs(ds[i].D()), abs(ds[j].D())
		if ai != aj {
			return ai > aj
		}
		return ds[i].Name < ds[j].Name
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// FormatDiff renders the ranked deltas.
func FormatDiff(w io.Writer, d *DiffReport) {
	fmt.Fprintf(w, "%s → %s  (%s)  total %d → %d bytes (%+d)\n",
		d.OldSource, d.NewSource, d.Kind, d.OldTotal, d.NewTotal, d.NewTotal-d.OldTotal)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  section\told\tnew\tdelta\n")
	for _, c := range d.Classes {
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%+d\n", c.Name, c.Old, c.New, c.D())
	}
	tw.Flush()
	if len(d.Streams) > 0 {
		fmt.Fprintf(w, "  streams (ranked by |delta|):\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, s := range d.Streams {
			if s.D() == 0 {
				continue
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%+d\n", s.Name, s.Old, s.New, s.D())
		}
		tw.Flush()
	}
	for _, ds := range d.DictDropped {
		fmt.Fprintf(w, "  dict dropped: %s (was %d stream + %d entry bytes)\n", ds.Pattern, ds.StreamBytes, ds.EntryBytes)
	}
	for _, ds := range d.DictAdded {
		fmt.Fprintf(w, "  dict added:   %s (%d stream + %d entry bytes)\n", ds.Pattern, ds.StreamBytes, ds.EntryBytes)
	}
	if len(d.DictChanged) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		shown := 0
		for _, c := range d.DictChanged {
			if c.D() == 0 {
				continue
			}
			if shown == 0 {
				fmt.Fprintf(w, "  dict entries (ranked by |delta|, stream + entry bytes):\n")
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%+d\n", c.Name, c.Old, c.New, c.D())
			if shown++; shown >= 10 {
				break
			}
		}
		tw.Flush()
	}
}
