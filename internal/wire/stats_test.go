package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestStatsInvariants pins the bookkeeping identities Measure reports
// on a corpus-scale program, so encoder changes can't silently
// desynchronize the stats from the bytes actually written.
func TestStatsInvariants(t *testing.T) {
	mod, err := cc.Compile("wep", workload.Generate(workload.Wep))
	if err != nil {
		t.Fatal(err)
	}
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
		if st.Trees <= 0 || st.Shapes <= 0 {
			t.Errorf("opts %+v: trees=%d shapes=%d, want positive", opt, st.Trees, st.Shapes)
		}
		if st.Shapes > st.Trees {
			t.Errorf("opts %+v: %d shapes exceed %d trees", opt, st.Shapes, st.Trees)
		}
		sum := st.MetadataBytes + st.OperatorBytes + st.LiteralBytes
		if st.ContainerBytes != sum {
			t.Errorf("opts %+v: ContainerBytes=%d != metadata+operators+literals=%d",
				opt, st.ContainerBytes, sum)
		}
		if st.FinalBytes <= 0 {
			t.Errorf("opts %+v: FinalBytes=%d, want positive", opt, st.FinalBytes)
		}
		if st.FinalBytes != len(data) {
			t.Errorf("opts %+v: FinalBytes=%d != len(object)=%d", opt, st.FinalBytes, len(data))
		}
		// The object MeasureTraced returns is the one CompressOpts
		// would build — Measure must never encode a different artifact.
		direct, err := CompressOpts(mod, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, direct) {
			t.Errorf("opts %+v: MeasureTraced object differs from CompressOpts", opt)
		}
		back, err := Decompress(data)
		if err != nil {
			t.Fatalf("opts %+v: decompress: %v", opt, err)
		}
		if back.NumTrees() != mod.NumTrees() {
			t.Errorf("opts %+v: round trip lost trees: %d != %d", opt, back.NumTrees(), mod.NumTrees())
		}
	}
}

// TestCompressTracedStageSpans asserts the per-stage spans carry byte
// deltas that sum to the measured container size — the contract the
// -trace JSONL output relies on.
func TestCompressTracedStageSpans(t *testing.T) {
	mod, err := cc.Compile("wep", workload.Generate(workload.Wep))
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	st, _, err := MeasureTraced(mod, Options{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	byteSum := map[string]int64{}
	var containerAttr int64
	for _, sr := range rec.Spans() {
		for _, a := range sr.Attrs {
			v, ok := a.Value.(int64)
			if !ok {
				continue
			}
			if a.Key == "bytes" {
				byteSum[sr.Name] += v
			}
			if sr.Name == "wire.compress" && a.Key == "container_bytes" {
				containerAttr = v
			}
		}
	}
	stageSum := byteSum["wire.metadata"] + byteSum["wire.operators"] + byteSum["wire.literals"]
	if stageSum != int64(st.ContainerBytes) {
		t.Errorf("stage span bytes sum %d != container %d", stageSum, st.ContainerBytes)
	}
	if containerAttr != int64(st.ContainerBytes) {
		t.Errorf("wire.compress container_bytes attr %d != container %d", containerAttr, st.ContainerBytes)
	}
	for _, name := range []string{"wire.metadata", "wire.patternize", "wire.operators", "wire.literals", "wire.final"} {
		found := false
		for _, sr := range rec.Spans() {
			if sr.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing stage span %s", name)
		}
	}
}

// TestDecompressTracedParseSplit asserts that a traced decode opens
// exactly one wire.unfinal and one wire.parse span, each a descendant
// of wire.decompress, and the tree fill as one direct child of the
// wire.parse span; that it emits no per-stream span (streams decode
// serially) and no separate validation span (the fill does the
// checking); that it keeps the wire.decompress attributes in order;
// and that the span costs no allocation with a nil recorder. The
// layer spans are the ones a benchmark aggregates per decode.
func TestDecompressTracedParseSplit(t *testing.T) {
	mod, err := cc.Compile("wep", workload.Generate(workload.Wep))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Compress(mod)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	if _, err := DecompressTraced(data, rec); err != nil {
		t.Fatal(err)
	}
	ids := map[string][]uint64{}
	parents := map[string][]uint64{}
	parentOf := map[uint64]uint64{}
	for _, sr := range rec.Spans() {
		ids[sr.Name] = append(ids[sr.Name], sr.ID)
		parents[sr.Name] = append(parents[sr.Name], sr.Parent)
		parentOf[sr.ID] = sr.Parent
		if sr.Name == "wire.decompress" {
			var keys []string
			for _, a := range sr.Attrs {
				keys = append(keys, a.Key)
			}
			if got := strings.Join(keys, ","); got != "bytes_in,trees" {
				t.Errorf("wire.decompress attributes %s, want bytes_in,trees", got)
			}
		}
	}
	if len(ids["wire.decompress"]) != 1 {
		t.Fatalf("%d wire.decompress spans, want 1", len(ids["wire.decompress"]))
	}
	root := ids["wire.decompress"][0]
	for _, name := range []string{"wire.unfinal", "wire.parse"} {
		if len(ids[name]) != 1 {
			t.Fatalf("%d %s spans, want 1", len(ids[name]), name)
		}
		id := ids[name][0]
		for id != 0 && id != root {
			id = parentOf[id]
		}
		if id != root {
			t.Errorf("%s is not under wire.decompress", name)
		}
	}
	if n := len(ids["wire.parse_stream"]); n != 0 {
		t.Errorf("%d wire.parse_stream spans, want none", n)
	}
	if p := parents["wire.fill"]; len(p) != 1 || p[0] != ids["wire.parse"][0] {
		t.Errorf("wire.fill parents %v, want one span under wire.parse %d", p, ids["wire.parse"][0])
	}
	// The fill checks what Validate did, so decode has no second walk.
	if n := len(ids["wire.validate"]); n != 0 {
		t.Errorf("%d wire.validate spans, want none", n)
	}

	var off *telemetry.Recorder
	if n := testing.AllocsPerRun(100, func() {
		off.StartSpan("wire.fill").End()
	}); n != 0 {
		t.Errorf("nil-recorder spans allocate %v times", n)
	}
}

// TestMeasureEncodesOnce guards the Measure refactor: the container is
// built exactly once per call (previously Measure built it, then
// CompressOpts rebuilt it from scratch).
func TestMeasureEncodesOnce(t *testing.T) {
	mod, err := cc.Compile("wep", workload.Generate(workload.Wep))
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	if _, _, err := MeasureTraced(mod, Options{}, rec); err != nil {
		t.Fatal(err)
	}
	encodes := 0
	for _, sr := range rec.Spans() {
		if sr.Name == "wire.patternize" {
			encodes++
		}
	}
	if encodes != 1 {
		t.Errorf("container encoded %d times in one Measure, want 1", encodes)
	}
}
