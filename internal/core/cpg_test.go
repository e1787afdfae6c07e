package core

import (
	"testing"

	"prefcolor/internal/ig"
)

// lineGraph builds a fresh graph with n web nodes and no physical
// nodes, with the given edges.
func lineGraph(n int, edges [][2]int) *ig.Graph {
	g := ig.NewGraph(0, n)
	for _, e := range edges {
		g.AddEdge(ig.NodeID(e[0]), ig.NodeID(e[1]))
	}
	g.Freeze()
	return g
}

func TestCPGIsolatedNodes(t *testing.T) {
	g := lineGraph(3, nil)
	cpg, err := BuildCPG(g, []ig.NodeID{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatalf("BuildCPG: %v", err)
	}
	for n := ig.NodeID(0); n < 3; n++ {
		if !cpg.HasEdge(Top, n) || !cpg.HasEdge(n, Bottom) {
			t.Errorf("isolated node %d should hang between top and bottom", n)
		}
	}
}

func TestCPGChainOrder(t *testing.T) {
	// Path 0-1-2 with K=2: all low degree; removal order 0,1,2.
	// Popping 0: neighbor 1 is ready (deg 2 < 2? deg(1)=2 not <2...).
	// With K=2: deg(1)=2 → not ready initially; 0 and 2 are ready.
	g := lineGraph(3, [][2]int{{0, 1}, {1, 2}})
	cpg, err := BuildCPG(g, []ig.NodeID{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatalf("BuildCPG: %v", err)
	}
	// Node 1 (non-ready) must precede node 0.
	if !cpg.HasEdge(1, 0) {
		t.Errorf("want edge 1 -> 0; cpg:\n%s", cpg.Dump(g))
	}
	// After 0's removal node 1 becomes ready; popping 1 finds ready 2
	// only → top -> 1.
	if !cpg.HasEdge(Top, 1) {
		t.Errorf("want top -> 1; cpg:\n%s", cpg.Dump(g))
	}
	if !cpg.HasEdge(Top, 2) {
		t.Errorf("want top -> 2; cpg:\n%s", cpg.Dump(g))
	}
}

func TestCPGPotentialSpillNotReady(t *testing.T) {
	// Triangle with K=2: simplification must optimistically remove
	// one node at significant degree.
	g := lineGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	pot := make([]bool, 3)
	pot[0] = true
	cpg, err := BuildCPG(g, []ig.NodeID{0, 1, 2}, pot, 2)
	if err != nil {
		t.Fatalf("BuildCPG: %v", err)
	}
	// 0 is a potential spill: created with an edge to bottom but not
	// ready, so when it pops first, neighbors 1 and 2 (non-ready,
	// degree 2 each) must precede it.
	if !cpg.HasEdge(0, Bottom) {
		t.Error("potential spill should point to bottom")
	}
	if !cpg.HasEdge(1, 0) || !cpg.HasEdge(2, 0) {
		t.Errorf("non-ready neighbors must precede the first pop; cpg:\n%s", cpg.Dump(g))
	}
}

func TestCPGTransitiveReduction(t *testing.T) {
	c := &CPG{}
	c.reset(5)
	c.addEdgeReduced(1, 2)
	c.addEdgeReduced(2, 3)
	// 1→3 is implied by 1→2→3 and must be skipped.
	c.addEdgeReduced(1, 3)
	if c.HasEdge(1, 3) {
		t.Error("transitive edge 1->3 was added")
	}
	// Adding 4→2 then 2→... and a pre-existing 4→3 must drop 4→3 when
	// 3 becomes reachable through the new edge.
	c.addEdgeReduced(4, 3)
	c.addEdgeReduced(4, 2) // 4→2→3 makes 4→3 transitive
	if c.HasEdge(4, 3) {
		t.Error("edge 4->3 should have been removed as transitive")
	}
	if !c.HasEdge(4, 2) || !c.HasEdge(2, 3) {
		t.Error("reduction removed a needed edge")
	}
}

func TestCPGReachable(t *testing.T) {
	c := &CPG{}
	c.reset(4)
	c.addEdge(1, 2)
	c.addEdge(2, 3)
	if !c.reachable(1, 3) || c.reachable(3, 1) || !c.reachable(2, 2) {
		t.Error("reachable wrong")
	}
}

func TestCPGRejectsBadStack(t *testing.T) {
	g := ig.NewGraph(2, 2)
	g.Freeze()
	if _, err := BuildCPG(g, []ig.NodeID{0}, nil, 2); err == nil {
		t.Error("physical node on stack not rejected")
	}
	if _, err := BuildCPG(g, []ig.NodeID{2, 2}, nil, 2); err == nil {
		t.Error("duplicate stack entry not rejected")
	}
}

func TestCPGEveryNodeReachesProcessing(t *testing.T) {
	// Random-ish denser graph: build, simplify, CPG, and check that a
	// topological traversal visits every node (no deadlock).
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}}
	g := lineGraph(6, edges)
	stack, pot := simplifyOptimistic(g, 3)
	if len(stack) != 6 {
		t.Fatalf("stack = %v", stack)
	}
	cpg, err := BuildCPG(g, stack, pot, 3)
	if err != nil {
		t.Fatalf("BuildCPG: %v", err)
	}
	// Kahn's walk.
	pc := map[ig.NodeID]int{}
	for _, n := range cpg.Nodes() {
		for _, p := range cpg.Preds(n) {
			if p != Top {
				pc[n]++
			}
		}
	}
	var q []ig.NodeID
	for _, n := range cpg.Nodes() {
		if pc[n] == 0 {
			q = append(q, n)
		}
	}
	visited := 0
	for len(q) > 0 {
		n := q[len(q)-1]
		q = q[:len(q)-1]
		visited++
		for _, s := range cpg.Succs(n) {
			if s == Bottom {
				continue
			}
			pc[s]--
			if pc[s] == 0 {
				q = append(q, s)
			}
		}
	}
	if visited != 6 {
		t.Errorf("topological walk visited %d of 6 nodes; cpg:\n%s", visited, cpg.Dump(g))
	}
}
