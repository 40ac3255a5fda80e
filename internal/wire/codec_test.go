package wire

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/workload"
)

// TestPatternizeMatchesReference checks the single-walk patternize
// against the reference definitions ir.Tree.Shape and CollectLiterals,
// function by function, so the per-function stream slices WIRX cuts its
// chunks from are pinned too.
func TestPatternizeMatchesReference(t *testing.T) {
	m := compileMod(t, "wep", workload.Generate(workload.Wep))
	nameIdx := symbolIndex(m)
	p, err := patternize(m, nameIdx)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range m.Functions {
		shapes := p.funcStream(fi, 0)
		if len(shapes) != len(f.Trees) {
			t.Fatalf("%s: %d shape ids for %d trees", f.Name, len(shapes), len(f.Trees))
		}
		var want [ir.NumOps][]int32
		for i, tr := range f.Trees {
			if !slices.Equal(p.shapes[shapes[i]], tr.Shape()) {
				t.Fatalf("%s tree %d: shape %v, want %v", f.Name, i, p.shapes[shapes[i]], tr.Shape())
			}
			for _, lit := range tr.CollectLiterals() {
				v := int32(lit.Int)
				if lit.Op.Lit() == ir.LitName {
					v = int32(nameIdx[lit.Name])
				}
				want[lit.Op] = append(want[lit.Op], v)
			}
		}
		for j, op := range litOps() {
			if got := p.funcStream(fi, j+1); !slices.Equal(got, want[op]) {
				t.Fatalf("%s: %s literals %v, want %v", f.Name, op, got, want[op])
			}
		}
	}
}
