package briggs_test

import (
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/regalloc/briggs"
	"prefcolor/internal/target"
)

func ctxFor(t *testing.T, src string, k int) *regalloc.Context {
	t.Helper()
	f := ir.MustParse(src)
	if _, err := ig.Renumber(f); err != nil {
		t.Fatal(err)
	}
	ctx, err := regalloc.NewContext(f, target.UsageModel(k), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// The classic optimism case: the 4-cycle at K=2. Every node has
// degree 2 >= K, so Chaitin-style pessimism would declare a spill, but
// the graph is 2-colorable and optimistic select finds the coloring.
func TestBriggsOptimismColorsFourCycle(t *testing.T) {
	g := ig.NewGraph(0, 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.Freeze()
	stack := briggs.OptimisticSimplify(g, 2)
	res, err := briggs.SelectBiased(g, 2, stack)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) != 0 {
		t.Fatalf("optimistic coloring spilled %v on a 2-colorable 4-cycle", res.Spilled)
	}
	if res.Colors[0] == res.Colors[1] || res.Colors[1] == res.Colors[2] ||
		res.Colors[2] == res.Colors[3] || res.Colors[3] == res.Colors[0] {
		t.Errorf("adjacent nodes share a color: %v", res.Colors)
	}
}

func TestOptimisticSimplifyEmptiesGraph(t *testing.T) {
	g := ig.NewGraph(0, 5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(ig.NodeID(i), ig.NodeID(j)) // K5
		}
	}
	g.Freeze()
	stack := briggs.OptimisticSimplify(g, 3)
	if len(stack) != 5 {
		t.Fatalf("stack = %d nodes, want all 5 (optimistic push)", len(stack))
	}
	for _, n := range g.ActiveNodes() {
		t.Errorf("node %d still active", n)
	}
}

func TestSelectBiasedSpillsOnlyWhenStuck(t *testing.T) {
	// K5 with 3 colors: exactly 2 nodes must become actual spills.
	g := ig.NewGraph(0, 5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddEdge(ig.NodeID(i), ig.NodeID(j))
		}
	}
	g.Freeze()
	stack := briggs.OptimisticSimplify(g, 3)
	res, err := briggs.SelectBiased(g, 3, stack)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) != 2 {
		t.Errorf("spilled %d of K5 at K=3, want 2", len(res.Spilled))
	}
	colored := 0
	for _, c := range res.Colors {
		if c >= 0 {
			colored++
		}
	}
	if colored != 3 {
		t.Errorf("colored %d, want 3", colored)
	}
}

func TestConservativeAvoidsDegreeInflation(t *testing.T) {
	// A copy between two webs whose merge would have K significant
	// neighbors must not be coalesced conservatively but must be
	// coalesced aggressively.
	build := func() *regalloc.Context {
		return ctxFor(t, `
func f(v0, v1, v2, v3) {
b0:
  v4 = move v5
  v5 = add v0, v1
  v6 = add v4, v5
  v7 = add v0, v1
  v8 = add v2, v3
  v9 = add v7, v8
  v10 = add v9, v6
  ret v10
}
`, 4)
	}
	_ = build
	// The conservative/aggressive distinction is pinned at the
	// helper level in the regalloc package tests; here pin only that
	// both variants produce valid allocations on the same input.
	for _, alloc := range []regalloc.Allocator{briggs.New(), briggs.NewConservative()} {
		ctx := build()
		res, err := alloc.Allocate(ctx)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		if err := regalloc.CheckResult(ctx, res); err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
	}
}
