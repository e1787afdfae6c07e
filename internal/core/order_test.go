package core

import (
	"fmt"
	"slices"
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// copyGraph returns a fresh graph with g's shape, original adjacency
// and spill costs, for a reference that removes nodes from it.
func copyGraph(g *ig.Graph) *ig.Graph {
	c := ig.NewGraph(g.NumPhys(), g.NumWebs())
	for a := range g.NumNodes() {
		c.SetSpillCost(ig.NodeID(a), g.SpillCost(ig.NodeID(a)))
		for _, b := range g.OrigNeighbors(ig.NodeID(a)) {
			c.AddEdge(ig.NodeID(a), b)
		}
	}
	c.Freeze()
	return c
}

// step7Edges replays steps 5–8 of §5.2's construction over the stack
// without the transitive reduction: when n is popped, every remaining
// web neighbor that is not ready (WIG degree k or more) gets an edge
// to n. It returns each node's successors, ascending.
func step7Edges(g *ig.Graph, stack []ig.NodeID, k int) [][]ig.NodeID {
	present := make([]bool, g.NumNodes())
	for _, n := range stack {
		present[n] = true
	}
	wig := make([]int, g.NumNodes())
	for _, n := range stack {
		for _, nb := range g.OrigNeighbors(n) {
			if present[nb] {
				wig[n]++
			}
		}
	}
	succs := make([][]ig.NodeID, g.NumNodes())
	for _, n := range stack {
		present[n] = false
		for _, nb := range g.OrigNeighbors(n) {
			if present[nb] && wig[nb] >= k {
				succs[nb] = append(succs[nb], n)
			}
		}
		for _, nb := range g.OrigNeighbors(n) {
			if present[nb] {
				wig[nb]--
			}
		}
	}
	for _, s := range succs {
		slices.Sort(s)
	}
	return succs
}

// orderSuccs is the relation the removal order encodes: n precedes
// each web neighbor a with pos[a] <= lim[n]. Successors ascend.
func orderSuccs(g *ig.Graph, o *removalOrder) [][]ig.NodeID {
	succs := make([][]ig.NodeID, g.NumNodes())
	for _, n := range o.stack {
		for _, a := range g.OrigNeighbors(n) {
			if !g.IsPhys(a) && o.pos[a] <= o.lim[n] {
				succs[n] = append(succs[n], a)
			}
		}
	}
	return succs
}

// reduce returns the transitive reduction of a relation whose edges all
// point to nodes removed earlier: an edge n→a goes when a is reachable
// from another successor of n.
func reduce(n int, stack []ig.NodeID, succs [][]ig.NodeID) [][]ig.NodeID {
	words := bitset.Words(n)
	reach := make([][]uint64, n) // nodes reachable by a path of one or more edges
	out := make([][]ig.NodeID, n)
	for _, v := range stack {
		reach[v] = make([]uint64, words)
		via := make([]uint64, words) // reachable through some successor
		for _, a := range succs[v] {
			bitset.Set(reach[v], int(a))
			for i, w := range reach[a] {
				reach[v][i] |= w
				via[i] |= w
			}
		}
		for _, a := range succs[v] {
			if !bitset.Has(via, int(a)) {
				out[v] = append(out[v], a)
			}
		}
	}
	return out
}

// checkOrder requires o, simplify's result for g at k, to give
// simplifySweepRef's stack and marks on twin (a copy of g), and its
// precedence encoding to agree with §5.2: preds is each web's in-degree
// in the encoded relation, the relation is step 7's edge set before
// reduction, and its transitive reduction is BuildCPG's edge set
// between real nodes.
func checkOrder(tb testing.TB, label string, g, twin *ig.Graph, k int, o *removalOrder) {
	tb.Helper()
	want, wantPot := simplifySweepRef(twin, k)
	if !slices.Equal(o.stack, want) {
		tb.Fatalf("%s k=%d: removal order\n  got  %v\n  want %v", label, k, o.stack, want)
	}
	if !slices.Equal(o.potential, wantPot) {
		tb.Fatalf("%s k=%d: potential-spill marks\n  got  %v\n  want %v", label, k, o.potential, wantPot)
	}
	succs := orderSuccs(g, o)
	in := make([]int32, g.NumNodes())
	for _, s := range succs {
		for _, a := range s {
			in[a]++
		}
	}
	step7 := step7Edges(g, o.stack, k)
	for _, n := range o.stack {
		if o.preds[n] != in[n] {
			tb.Fatalf("%s k=%d: preds[%d] = %d, in-degree %d", label, k, n, o.preds[n], in[n])
		}
		if !slices.Equal(succs[n], step7[n]) {
			tb.Fatalf("%s k=%d: node %d precedes %v, step 7 gives %v", label, k, n, succs[n], step7[n])
		}
	}
	cpg, err := BuildCPG(g, o.stack, o.potential, k)
	if err != nil {
		tb.Fatalf("%s k=%d: BuildCPG: %v", label, k, err)
	}
	reduced := reduce(g.NumNodes(), o.stack, succs)
	for _, n := range o.stack {
		var real []ig.NodeID
		for _, s := range cpg.Succs(n) {
			if s >= 0 {
				real = append(real, s)
			}
		}
		if !slices.Equal(reduced[n], real) {
			tb.Fatalf("%s k=%d: reduced successors of %d = %v, BuildCPG %v", label, k, n, reduced[n], real)
		}
	}
}

// orderCheck is a regalloc.Allocator that runs a and then checks the
// round's removal order with checkOrder, and that simplify left the
// graph's degrees and removed flags as it found them.
type orderCheck struct {
	a  *Allocator
	tb testing.TB
}

func (c *orderCheck) Name() string { return c.a.Name() }

func (c *orderCheck) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	state := func() ([]int, []bool) {
		deg, removed := make([]int, g.NumNodes()), make([]bool, g.NumNodes())
		for n := range g.NumNodes() {
			deg[n], removed[n] = g.Degree(ig.NodeID(n)), g.Removed(ig.NodeID(n))
		}
		return deg, removed
	}
	deg, removed := state()
	twin := copyGraph(g)
	// A selection error comes after simplify, so the order is checked
	// either way.
	res, err := c.a.Allocate(ctx)
	label := fmt.Sprintf("%s/%s", c.a.Name(), ctx.F.Name)
	if deg2, removed2 := state(); !slices.Equal(deg, deg2) || !slices.Equal(removed, removed2) {
		c.tb.Fatalf("%s: allocation changed the graph's degrees or removed flags", label)
	}
	checkOrder(c.tb, label, g, twin, k, &coreScratchFor(ctx).ord)
	return res, err
}

// TestOrderMatchesCPG checks every round's removal order (checkOrder)
// on the nine profiles at k = 16, 24 and 32, Large at k = 16 and
// workload.Fuzz() seeds 1–200 at k = 2, 3, 4 and 8, in both preference
// modes.
func TestOrderMatchesCPG(t *testing.T) {
	run := func(t *testing.T, f *ir.Func, m *target.Machine) {
		for _, a := range []*Allocator{New(), NewCoalesceOnly()} {
			if _, _, err := regalloc.Run(f, m, &orderCheck{a: a, tb: t}, regalloc.Options{}); err != nil {
				t.Fatalf("%s/%s on %s: %v", a.Name(), f.Name, m.Name, err)
			}
		}
	}
	t.Run("suite", func(t *testing.T) {
		t.Parallel()
		for _, k := range []int{16, 24, 32} {
			m := target.UsageModel(k)
			for _, p := range workload.Benchmarks() {
				for _, f := range workload.Generate(p, m) {
					run(t, f, m)
				}
			}
		}
	})
	t.Run("large", func(t *testing.T) {
		t.Parallel()
		m := target.UsageModel(16)
		for _, f := range workload.Generate(workload.Large(), m) {
			run(t, f, m)
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		t.Parallel()
		for _, k := range []int{2, 3, 4, 8} {
			m := target.UsageModel(k)
			for seed := int64(1); seed <= 200; seed++ {
				run(t, workload.GenerateRawFunc(workload.Fuzz(), m, seed), m)
			}
		}
	})
}

// FuzzOrderMatchesCPG builds a random graph from its input and checks
// simplify's removal order on it with checkOrder. The first three bytes
// give the physical and web counts and k (2 to 8); each web then takes
// a byte choosing its spill cost from a small set with ties, zero and
// InfiniteCost, and the remaining bytes are the adjacency bits, pair by
// pair.
func FuzzOrderMatchesCPG(f *testing.F) {
	f.Add([]byte{2, 12, 1, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0xff, 0x5a, 0xa5, 0x33, 0xcc, 0x0f, 0xf0, 0x81, 0x7e, 0x99})
	f.Add([]byte{0, 30, 0, 3, 3, 3, 3, 3, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 40, 6, 1, 1, 0, 0, 2, 2, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nPhys, nWebs, k := int(data[0]%4), 1+int(data[1]%48), 2+int(data[2]%7)
		data = data[3:]
		costs := []float64{0, 1, 2, regalloc.InfiniteCost}
		build := func() *ig.Graph {
			g := ig.NewGraph(nPhys, nWebs)
			bit := 0
			next := func() bool {
				if bit/8 >= len(data) {
					return false
				}
				b := data[bit/8]>>(bit%8)&1 == 1
				bit++
				return b
			}
			for w := range nWebs {
				c := 1.0
				if w < len(data) {
					c = costs[data[w]%4]
				}
				g.SetSpillCost(ig.NodeID(nPhys+w), c)
			}
			for a := nPhys; a < g.NumNodes(); a++ {
				for b := 0; b < a; b++ {
					if next() {
						g.AddEdge(ig.NodeID(a), ig.NodeID(b))
					}
				}
			}
			g.Freeze()
			return g
		}
		g := build()
		var o removalOrder
		o.simplify(g, k)
		checkOrder(t, "fuzz", g, build(), k, &o)
	})
}
