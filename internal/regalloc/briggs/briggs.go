// Package briggs implements Briggs-style optimistic coloring (the
// paper's Figure 1(b)): coalescing up front, simplification that
// pushes potential spills instead of committing them, and biased
// select that turns potential spills into actual spills only when no
// color remains.
//
// The coalescing mode is selectable: aggressive (what the paper's
// "Briggs +aggressive" configuration in Figure 9 uses) or Briggs's
// conservative test.
package briggs

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
)

// Allocator is the Briggs et al. 1994 algorithm.
type Allocator struct {
	// Conservative selects conservative coalescing; default is
	// aggressive.
	Conservative bool
}

// New returns the aggressive-coalescing variant used in Figure 9.
func New() *Allocator { return &Allocator{} }

// NewConservative returns the conservative-coalescing variant.
func NewConservative() *Allocator { return &Allocator{Conservative: true} }

// Name implements regalloc.Allocator.
func (a *Allocator) Name() string {
	if a.Conservative {
		return "briggs-conservative"
	}
	return "briggs-aggressive"
}

// Allocate implements regalloc.Allocator.
func (a *Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	if a.Conservative {
		conservativeCoalesce(g, k)
	} else {
		regalloc.AggressiveCoalesce(g)
	}

	stack := OptimisticSimplify(g, k)
	return SelectBiased(g, k, stack)
}

// conservativeCoalesce coalesces only copies passing Briggs's test
// (George's test against precolored nodes), iterating to a fixed
// point.
func conservativeCoalesce(g *ig.Graph, k int) int {
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
			ok := false
			switch {
			case g.IsPhys(x):
				ok = regalloc.GeorgeConservative(g, y, x, k)
			case g.IsPhys(y):
				ok = regalloc.GeorgeConservative(g, x, y, k)
			default:
				ok = regalloc.BriggsConservative(g, x, y, k)
			}
			if ok {
				g.Coalesce(x, y)
				done++
				changed = true
			}
		}
	}
	return done
}

// OptimisticSimplify empties the graph onto a stack: low-degree nodes
// first; when only significant-degree nodes remain, the cheapest spill
// candidate is pushed optimistically rather than spilled. Shared with
// the optimistic-coalescing allocator.
func OptimisticSimplify(g *ig.Graph, k int) []ig.NodeID {
	var stack []ig.NodeID
	for {
		progress := false
		for _, n := range g.ActiveNodes() {
			if g.Degree(n) < k {
				g.Remove(n)
				stack = append(stack, n)
				progress = true
			}
		}
		if progress {
			continue
		}
		cand := regalloc.SpillCandidate(g)
		if cand < 0 {
			return stack
		}
		g.Remove(cand)
		stack = append(stack, cand)
	}
}

// SelectBiased pops the stack, giving each node a color not used by
// its neighbors, preferring a copy-related partner's color (biased
// coloring); nodes with no color become actual spills. Shared with
// the call-cost allocator's fallback path.
func SelectBiased(g *ig.Graph, k int, stack []ig.NodeID) (*regalloc.Result, error) {
	res := regalloc.NewResult(g)
	coloring := regalloc.NewColoring(g)
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		avail := coloring.Available(n, k)
		if len(avail) == 0 {
			res.Spilled = append(res.Spilled, n)
			continue
		}
		coloring.Set(n, regalloc.BiasedPick(g, coloring, n, avail))
	}
	coloring.Fill(res)
	return res, nil
}
