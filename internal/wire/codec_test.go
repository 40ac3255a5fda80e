package wire

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/workload"
)

// TestPatternizeMatchesReference checks patternize against the
// definition of the streams: a tree's shape is the ops of its node
// range, and its literals are its nodes' literals in prefix order, a
// name as its symbol index. It checks function by function, so the
// per-function stream slices WIRX cuts its chunks from are pinned too.
func TestPatternizeMatchesReference(t *testing.T) {
	m := compileMod(t, "wep", workload.Generate(workload.Wep))
	p, err := patternize(m)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range m.Functions {
		shapes := p.funcStream(fi, 0)
		if len(shapes) != len(f.Roots) {
			t.Fatalf("%s: %d shape ids for %d trees", f.Name, len(shapes), len(f.Roots))
		}
		var want [ir.NumOps][]int32
		for k := range f.Roots {
			var shape []ir.Op
			for _, n := range f.Tree(k) {
				shape = append(shape, n.Op)
				if n.Op.Lit() != ir.LitNone {
					want[n.Op] = append(want[n.Op], n.Lit)
				}
			}
			if !slices.Equal(p.shapes[shapes[k]], shape) {
				t.Fatalf("%s tree %d: shape %v, want %v", f.Name, k, p.shapes[shapes[k]], shape)
			}
		}
		for j, op := range litOps() {
			if got := p.funcStream(fi, j+1); !slices.Equal(got, want[op]) {
				t.Fatalf("%s: %s literals %v, want %v", f.Name, op, got, want[op])
			}
		}
	}
}
