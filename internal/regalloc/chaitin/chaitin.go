// Package chaitin implements the baseline allocator of the paper's
// Figure 1(a): Chaitin-style coloring with aggressive coalescing,
// pessimistic simplification, and spill-everywhere. It is the "base
// algorithm" every ratio in Figure 9 is normalized against.
package chaitin

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
)

// Allocator is the Chaitin 1982 algorithm.
type Allocator struct{}

// New returns the allocator.
func New() *Allocator { return &Allocator{} }

// Name implements regalloc.Allocator.
func (*Allocator) Name() string { return "chaitin" }

// Allocate implements regalloc.Allocator: coalesce aggressively, then
// simplify; when only significant-degree nodes remain, mark the
// cheapest for spilling and keep going. If anything spilled, the
// round ends there (the driver inserts spill code and retries);
// otherwise select colors in stack order.
func (*Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	regalloc.AggressiveCoalesce(g)

	res := regalloc.NewResult(g)
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
		// Only significant-degree nodes remain (if any): spill the
		// cheapest per remaining degree.
		cand := regalloc.SpillCandidate(g)
		if cand < 0 {
			break
		}
		g.Remove(cand)
		res.Spilled = append(res.Spilled, cand)
	}
	if len(res.Spilled) > 0 {
		return res, nil
	}

	coloring := regalloc.NewColoring(g)
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		avail := coloring.Available(n, k)
		if len(avail) == 0 {
			// Unreachable given the simplification guarantee.
			res.Spilled = append(res.Spilled, n)
			continue
		}
		coloring.Set(n, avail[0])
	}
	coloring.Fill(res)
	return res, nil
}
