package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// simplifySweepRef is the simplification the worklist replaced:
// repeated ascending sweeps over the active webs, each removing every
// node whose degree is below k when the sweep reaches it, and a
// regalloc.SpillCandidate scan whenever a whole sweep removes nothing.
func simplifySweepRef(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	var order []ig.NodeID
	potential := make([]bool, g.NumNodes())
	for {
		progress := false
		g.ForEachActive(func(n ig.NodeID) {
			if g.Degree(n) < k {
				g.Remove(n)
				order = append(order, n)
				progress = true
			}
		})
		if progress {
			continue
		}
		cand := regalloc.SpillCandidate(g)
		if cand < 0 {
			break
		}
		potential[cand] = true
		g.Remove(cand)
		order = append(order, cand)
	}
	return order, potential
}

// checkSimplifyMatches runs the worklist simplification on one graph
// and the reference sweep on another built identically, and requires
// the same removal order and potential-spill marks. The worklist side
// runs on a shared removal order so reuse across graphs is covered
// too.
func checkSimplifyMatches(t *testing.T, o *removalOrder, label string, build func() *ig.Graph, k int) {
	t.Helper()
	o.simplify(build(), k)
	got, gotPot := o.stack, o.potential
	want, wantPot := simplifySweepRef(build(), k)
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d: removal order\n  got  %v\n  want %v", label, k, got, want)
	}
	if !slices.Equal(gotPot, wantPot) {
		t.Fatalf("%s k=%d: potential-spill marks\n  got  %v\n  want %v", label, k, gotPot, wantPot)
	}
}

// contextGraph returns a builder of f's round-1 interference graph on
// m (f renumbered once, on a copy).
func contextGraph(t *testing.T, f *ir.Func, m *target.Machine) func() *ig.Graph {
	t.Helper()
	f = f.Clone()
	if _, err := ig.Renumber(f); err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return func() *ig.Graph {
		ctx, err := regalloc.NewContext(f, m, nil)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		return ctx.Graph
	}
}

// TestSimplifyMatchesSweep pins the worklist simplification and its
// lazy spill heap to the sweep-and-scan reference: the nine profiles
// at k = 16, 24 and 32, Large at k = 16, fuzz seeds 1–200 at k = 2, 3,
// 4 and 8, and hand-built graphs with tied keys, zero-cost and
// InfiniteCost nodes (plus negative costs, which take the scan).
func TestSimplifyMatchesSweep(t *testing.T) {
	cs := &removalOrder{}
	for _, k := range []int{16, 24, 32} {
		m := target.UsageModel(k)
		for _, p := range workload.Benchmarks() {
			for _, f := range workload.Generate(p, m) {
				checkSimplifyMatches(t, cs, f.Name, contextGraph(t, f, m), k)
			}
		}
	}
	m16 := target.UsageModel(16)
	for _, f := range workload.Generate(workload.Large(), m16) {
		checkSimplifyMatches(t, cs, f.Name, contextGraph(t, f, m16), 16)
	}
	for _, k := range []int{2, 3, 4, 8} {
		m := target.UsageModel(k)
		for seed := int64(1); seed <= 200; seed++ {
			f := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
			checkSimplifyMatches(t, cs, fmt.Sprintf("fuzz seed %d", seed), contextGraph(t, f, m), k)
		}
	}

	// A 6-clique of equal costs at k = 3 ties every spill key; two
	// zero-cost and two InfiniteCost webs hang off it, one web touches a
	// physical register, and one is isolated.
	handBuilt := func() *ig.Graph {
		g := ig.NewGraph(2, 12)
		w := func(i int) ig.NodeID { return ig.NodeID(2 + i) }
		for a := 0; a < 6; a++ {
			for b := a + 1; b < 6; b++ {
				g.AddEdge(w(a), w(b))
			}
			g.SetSpillCost(w(a), 12)
		}
		for i, c := range []float64{0, 0, regalloc.InfiniteCost, regalloc.InfiniteCost} {
			n := w(6 + i)
			g.SetSpillCost(n, c)
			for a := 0; a < 4; a++ {
				g.AddEdge(n, w((a+i)%6))
			}
		}
		g.AddEdge(w(10), 0)
		g.AddEdge(w(10), w(6))
		g.SetSpillCost(w(10), 3)
		g.Freeze()
		return g
	}
	for _, k := range []int{1, 2, 3, 4, 6} {
		checkSimplifyMatches(t, cs, "hand-built", handBuilt, k)
	}

	// Random graphs whose costs come from a four-value set, so keys tie
	// often; the variant with negative costs (whose keys fall as degrees
	// do) exercises the scan fallback.
	for seed := int64(1); seed <= 200; seed++ {
		for _, negative := range []bool{false, true} {
			build := func() *ig.Graph {
				rng := rand.New(rand.NewSource(seed))
				nWebs := 4 + rng.Intn(40)
				g := ig.NewGraph(2, nWebs)
				density := 0.1 + 0.5*rng.Float64()
				costs := []float64{0, 1, 2, regalloc.InfiniteCost}
				for a := 2; a < g.NumNodes(); a++ {
					g.SetSpillCost(ig.NodeID(a), costs[rng.Intn(len(costs))])
					for b := 0; b < a; b++ {
						if rng.Float64() < density {
							g.AddEdge(ig.NodeID(a), ig.NodeID(b))
						}
					}
				}
				for a := 2; negative && a < g.NumNodes(); a += 2 {
					g.SetSpillCost(ig.NodeID(a), -float64(1+rng.Intn(7)))
				}
				g.Freeze()
				return g
			}
			k := 2 + int(seed%5)
			checkSimplifyMatches(t, cs, fmt.Sprintf("random seed %d negative=%v", seed, negative), build, k)
		}
	}
}
