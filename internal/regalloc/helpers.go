package regalloc

import (
	"prefcolor/internal/costmodel"
	"prefcolor/internal/ig"
)

// NodeBenefits aggregates the Lueh–Gross benefit functions over a
// (possibly coalesced) node: the Str value of residing in a volatile
// and in a non-volatile register, versus memory.
func NodeBenefits(ctx *Context, n ig.NodeID) (volatile, nonVolatile float64) {
	var mem, op, cross float64
	for _, m := range ctx.Graph.Members(n) {
		if ctx.Graph.IsPhys(m) {
			continue
		}
		w := int(m) - ctx.Graph.NumPhys()
		mem += ctx.Costs.MemCost(w)
		op += ctx.Costs.OpCosts[w]
		cross += ctx.Costs.CrossFreq[w]
	}
	volatile = mem - (costmodel.SaveRestoreCost*cross + op)
	nonVolatile = mem - (costmodel.CalleeSaveCost + op)
	return volatile, nonVolatile
}

// AggressiveCoalesce coalesces every copy whose endpoints do not
// interfere, repeating until nothing changes (Chaitin's coalescing).
// It returns the number of coalesces performed.
func AggressiveCoalesce(g *ig.Graph) int {
	done := 0
	for changed := true; changed; {
		changed = false
		for _, m := range g.Moves() {
			x, y := g.Find(m.X), g.Find(m.Y)
			if x == y || g.Interferes(x, y) {
				continue
			}
			if g.IsPhys(x) && g.IsPhys(y) {
				continue
			}
			if g.Removed(x) || g.Removed(y) {
				continue
			}
			g.Coalesce(x, y)
			done++
			changed = true
		}
	}
	return done
}

// BriggsConservative reports whether coalescing reps a and b is safe
// under Briggs's test: the merged node has fewer than k neighbors of
// significant degree.
func BriggsConservative(g *ig.Graph, a, b ig.NodeID, k int) bool {
	seen := map[ig.NodeID]bool{}
	significant := 0
	count := func(n ig.NodeID) {
		for _, nb := range g.Neighbors(n) {
			nb = g.Find(nb)
			if seen[nb] || g.Removed(nb) {
				continue
			}
			seen[nb] = true
			// A neighbor of both a and b loses one edge in the merge.
			deg := g.Degree(nb)
			if g.Interferes(nb, a) && g.Interferes(nb, b) {
				deg--
			}
			if g.IsPhys(nb) || deg >= k {
				significant++
			}
		}
	}
	count(a)
	count(b)
	return significant < k
}

// GeorgeConservative reports whether coalescing a into b is safe under
// George's test: every active neighbor of a already interferes with b
// or has insignificant degree. Used when b is precolored.
func GeorgeConservative(g *ig.Graph, a, b ig.NodeID, k int) bool {
	for _, nb := range g.Neighbors(a) {
		nb = g.Find(nb)
		if g.Removed(nb) {
			continue
		}
		if g.Interferes(nb, b) || (!g.IsPhys(nb) && g.Degree(nb) < k) {
			continue
		}
		return false
	}
	return true
}

// SpillCandidate picks the active node with the lowest spill priority
// (cost ÷ current degree), the metric every allocator in the paper's
// comparison shares. It returns -1 when no active web node remains.
func SpillCandidate(g *ig.Graph) ig.NodeID {
	best := ig.NodeID(-1)
	bestKey := 0.0
	// Direct in-place scan, same ascending order ActiveNodes would
	// snapshot — this runs once per simplify stall, so the snapshot
	// allocation used to be a top-line profile entry.
	g.ForEachActive(func(n ig.NodeID) {
		if key := SpillKey(g, n); best < 0 || key < bestKey {
			best, bestKey = n, key
		}
	})
	return best
}

// SpillKey is SpillCandidate's ranking of active node n: its spill
// cost over its current degree, with degree 0 counted as 1. Lower
// keys spill first.
func SpillKey(g *ig.Graph, n ig.NodeID) float64 {
	deg := g.Degree(n)
	if deg == 0 {
		deg = 1
	}
	return g.SpillCost(n) / float64(deg)
}

// Coloring tracks register choices per node during select. Physical
// nodes are precolored with their own numbers.
type Coloring struct {
	g     *ig.Graph
	Color []int
}

// NewColoring returns a coloring with only the physical nodes colored.
func NewColoring(g *ig.Graph) *Coloring {
	c := &Coloring{g: g, Color: make([]int, g.NumNodes())}
	for i := range c.Color {
		c.Color[i] = -1
	}
	for i := 0; i < g.NumPhys(); i++ {
		c.Color[i] = i
	}
	return c
}

// ColorOf returns node n's register, following coalescing aliases,
// or -1.
func (c *Coloring) ColorOf(n ig.NodeID) int {
	if col := c.Color[n]; col >= 0 {
		return col
	}
	return c.Color[c.g.Find(n)]
}

// Set colors node n.
func (c *Coloring) Set(n ig.NodeID, col int) { c.Color[n] = col }

// Available returns the free registers for node n: every register not
// used by a colored current-graph neighbor, in increasing order.
func (c *Coloring) Available(n ig.NodeID, k int) []int {
	used := make([]bool, k)
	c.g.ForEachNeighbor(n, func(nb ig.NodeID) {
		if col := c.ColorOf(nb); col >= 0 && col < k {
			used[col] = true
		}
	})
	var out []int
	for r := 0; r < k; r++ {
		if !used[r] {
			out = append(out, r)
		}
	}
	return out
}

// AvailableOrig is Available against the pre-coalescing adjacency of
// an original node, for allocators that split coalesced nodes.
func (c *Coloring) AvailableOrig(n ig.NodeID, k int) []int {
	used := make([]bool, k)
	for _, nb := range c.g.OrigNeighbors(n) {
		if col := c.ColorOf(nb); col >= 0 && col < k {
			used[col] = true
		}
	}
	var out []int
	for r := 0; r < k; r++ {
		if !used[r] {
			out = append(out, r)
		}
	}
	return out
}

// Fill copies the coloring into a Result, assigning each colored node.
func (c *Coloring) Fill(res *Result) {
	for n := c.g.NumPhys(); n < c.g.NumNodes(); n++ {
		if c.Color[n] >= 0 {
			res.Colors[ig.NodeID(n)] = c.Color[n]
		}
	}
}

// BiasedPick chooses from avail preferring a color already given to a
// copy-related partner of n (Briggs's biased coloring); it falls back
// to the first available register. avail must be non-empty.
func BiasedPick(g *ig.Graph, c *Coloring, n ig.NodeID, avail []int) int {
	inAvail := func(col int) bool {
		for _, a := range avail {
			if a == col {
				return true
			}
		}
		return false
	}
	bestCol, bestW := -1, 0.0
	for _, mi := range g.NodeMoves(n) {
		m := g.Moves()[mi]
		other := g.Find(m.X)
		if other == g.Find(n) {
			other = g.Find(m.Y)
		}
		if other == g.Find(n) {
			continue
		}
		if col := c.ColorOf(other); col >= 0 && inAvail(col) && (bestCol < 0 || m.Weight > bestW) {
			bestCol, bestW = col, m.Weight
		}
	}
	if bestCol >= 0 {
		return bestCol
	}
	return avail[0]
}
