package core

import (
	"fmt"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// removeEdge deletes a→b.
func (c *CPG) removeEdge(a, b ig.NodeID) {
	bi := cpgIdx(b)
	c.row(cpgIdx(a))[bi>>6] &^= 1 << (uint(bi) & 63)
}

// reachable reports whether a path a⇝b exists, by depth-first search
// over the successor rows.
func (c *CPG) reachable(a, b ig.NodeID) bool {
	seen := make([]bool, c.slots)
	work := []ig.NodeID{a}
	seen[cpgIdx(a)] = true
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if x == b {
			return true
		}
		for _, s := range c.Succs(x) {
			if !seen[cpgIdx(s)] {
				seen[cpgIdx(s)] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// addEdgeReduced adds u→n keeping the graph transitively reduced: the
// edge is skipped if a path u⇝n already exists, and existing edges
// u→x that the new edge makes transitive (n⇝x) are removed. This is
// the general form of step 7, with no use of the replay's pop order.
func (c *CPG) addEdgeReduced(u, n ig.NodeID) {
	if c.reachable(u, n) {
		return
	}
	c.addEdge(u, n)
	for _, x := range c.Succs(u) {
		if x != n && c.reachable(n, x) {
			c.removeEdge(u, x)
		}
	}
}

// buildCPGReference is the nine-step construction with the general
// addEdgeReduced call per step-7 edge — the form buildCPGInto
// specializes by exploiting the replay's pop ordering. The optimized
// builder must produce identical edge sets.
func buildCPGReference(g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) *CPG {
	c := &CPG{}
	c.reset(g.NumNodes())
	present := make([]bool, g.NumNodes())
	for _, n := range stack {
		present[n] = true
	}
	wigDeg := make([]int, g.NumNodes())
	for _, n := range stack {
		d := 0
		g.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
			if present[nb] {
				d++
			}
		})
		wigDeg[n] = d
	}
	inCPG := make([]bool, g.NumNodes())
	ready := make([]bool, g.NumNodes())
	for _, n := range stack {
		switch {
		case wigDeg[n] < k:
			inCPG[n] = true
			c.addEdge(n, Bottom)
			ready[n] = true
		case int(n) < len(potentialSpill) && potentialSpill[n]:
			inCPG[n] = true
			c.addEdge(n, Bottom)
		}
	}
	for _, n := range stack {
		present[n] = false
		var remaining []ig.NodeID
		g.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
			if present[nb] {
				remaining = append(remaining, nb)
			}
		})
		for _, nb := range remaining {
			inCPG[nb] = true
		}
		sawNonReady := false
		for _, nb := range remaining {
			if !ready[nb] {
				sawNonReady = true
				c.addEdgeReduced(nb, n)
			}
		}
		if !sawNonReady {
			c.addEdge(Top, n)
		}
		for _, nb := range remaining {
			wigDeg[nb]--
			if wigDeg[nb] < k {
				ready[nb] = true
			}
		}
	}
	return c
}

// TestCPGBuildMatchesReference checks the optimized builder against
// the reference over random programs: every node must have the same
// successor and predecessor sets. Selection reads edge sets only, so
// equal sets make everything downstream (selection order, digests)
// bit-identical.
func TestCPGBuildMatchesReference(t *testing.T) {
	m := target.UsageModel(8)
	k := m.NumRegs
	for seed := int64(1); seed <= 60; seed++ {
		f := workload.GenerateRawFunc(propProfile, m, seed)
		if _, err := ig.Renumber(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ctx, err := regalloc.NewContext(f, m, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := ctx.Graph
		stack, potential := simplifyOptimistic(g, k)
		got, err := BuildCPG(g, stack, potential, k)
		if err != nil {
			t.Fatalf("seed %d: BuildCPG: %v", seed, err)
		}
		want := buildCPGReference(g, stack, potential, k)
		for n := Bottom; int(n) < g.NumNodes(); n++ {
			gs, ws := fmt.Sprint(got.Succs(n)), fmt.Sprint(want.Succs(n))
			if gs != ws {
				t.Fatalf("seed %d: succs(%d) = %s, reference %s", seed, n, gs, ws)
			}
			gp, wp := fmt.Sprint(got.Preds(n)), fmt.Sprint(want.Preds(n))
			if gp != wp {
				t.Fatalf("seed %d: preds(%d) = %s, reference %s", seed, n, gp, wp)
			}
		}
	}
}
