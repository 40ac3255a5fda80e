package wire

import (
	"testing"

	"repro/internal/workload"
)

// TestInspectPartition: Inspect's sections must partition the
// container exactly, match the encoder's own stage stats, and the
// per-stream bit accounting must cover every segment bit, across the
// ablation configurations.
func TestInspectPartition(t *testing.T) {
	mod := compileMod(t, "wep", workload.Generate(workload.Wep))
	for _, opt := range []Options{
		{},
		{NoMTF: true},
		{NoHuffman: true},
		{Final: FinalArith},
		{Final: FinalNone},
	} {
		st, data, err := MeasureTraced(mod, opt, nil)
		if err != nil {
			t.Fatalf("opts %+v: %v", opt, err)
		}
		insp, err := Inspect(data)
		if err != nil {
			t.Fatalf("opts %+v: Inspect: %v", opt, err)
		}
		if insp.ContainerBytes != st.ContainerBytes {
			t.Errorf("opts %+v: Inspect container %d, Measure %d", opt, insp.ContainerBytes, st.ContainerBytes)
		}
		if insp.FileBytes != len(data) {
			t.Errorf("opts %+v: FileBytes %d, artifact %d", opt, insp.FileBytes, len(data))
		}
		// Class sums must reproduce the encoder's stage attribution.
		byClass := map[string]int{}
		for _, s := range insp.Sections {
			byClass[s.Class] += s.Len
		}
		if byClass["metadata"] != st.MetadataBytes {
			t.Errorf("opts %+v: metadata %d, want %d", opt, byClass["metadata"], st.MetadataBytes)
		}
		if byClass["operators"] != st.OperatorBytes {
			t.Errorf("opts %+v: operators %d, want %d", opt, byClass["operators"], st.OperatorBytes)
		}
		if byClass["literals"] != st.LiteralBytes {
			t.Errorf("opts %+v: literals %d, want %d", opt, byClass["literals"], st.LiteralBytes)
		}
		// The decoded shape stream must cover every tree.
		if got, want := len(insp.ShapeStream), st.Trees; got != want {
			t.Errorf("opts %+v: %d shape symbols, want %d trees", opt, got, want)
		}
	}
}
