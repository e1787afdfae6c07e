// Package callcost models Lueh & Gross's call-cost directed register
// allocation in the configuration the paper compares against in
// Figure 11 ("aggressive+volatility"): Chaitin-style aggressive
// coalescing, non-optimistic benefit-driven simplification, and a
// select phase that chooses between volatile registers, non-volatile
// registers, and memory using the two benefit functions of the
// Appendix cost model.
package callcost

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
)

// Allocator is the modeled Lueh & Gross 1997 algorithm.
type Allocator struct{}

// New returns the allocator.
func New() *Allocator { return &Allocator{} }

// Name implements regalloc.Allocator.
func (*Allocator) Name() string { return "callcost" }

// Allocate implements regalloc.Allocator.
func (*Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	regalloc.AggressiveCoalesce(g)

	// Benefit-driven simplification: among removable (low-degree)
	// nodes, push the lowest-priority node first so high-benefit nodes
	// pop earlier and get first pick of registers. Still pessimistic:
	// blocked graphs spill the cheapest candidate, ending the round.
	res := regalloc.NewResult(g)
	var stack []ig.NodeID
	for {
		best := ig.NodeID(-1)
		bestPri := 0.0
		for _, n := range g.ActiveNodes() {
			if g.Degree(n) >= k {
				continue
			}
			pri := priority(ctx, n)
			if best < 0 || pri < bestPri {
				best, bestPri = n, pri
			}
		}
		if best >= 0 {
			g.Remove(best)
			stack = append(stack, best)
			continue
		}
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
	vol, nonvol := splitByVolatility(ctx)
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		bv, bnv := regalloc.NodeBenefits(ctx, n)
		if bv < 0 && bnv < 0 && g.SpillCost(n) < regalloc.InfiniteCost {
			// Memory beats both register classes: leave it there.
			res.Spilled = append(res.Spilled, n)
			continue
		}
		avail := coloring.Available(n, k)
		if len(avail) == 0 {
			res.Spilled = append(res.Spilled, n)
			continue
		}
		pick := classPick(avail, vol, nonvol, bv >= bnv)
		coloring.Set(n, pick)
	}
	coloring.Fill(res)
	return res, nil
}

// priority is the combined benefit used to order simplification.
func priority(ctx *regalloc.Context, n ig.NodeID) float64 {
	bv, bnv := regalloc.NodeBenefits(ctx, n)
	if bv > bnv {
		return bv
	}
	return bnv
}

func splitByVolatility(ctx *regalloc.Context) (vol, nonvol []bool) {
	k := ctx.K()
	vol = make([]bool, k)
	nonvol = make([]bool, k)
	for r := 0; r < k; r++ {
		if ctx.Machine.IsVolatile(r) {
			vol[r] = true
		} else {
			nonvol[r] = true
		}
	}
	return vol, nonvol
}

// classPick takes the first available register of the preferred class,
// falling back to the other class.
func classPick(avail []int, vol, nonvol []bool, preferVolatile bool) int {
	first, second := vol, nonvol
	if !preferVolatile {
		first, second = nonvol, vol
	}
	for _, r := range avail {
		if first[r] {
			return r
		}
	}
	for _, r := range avail {
		if second[r] {
			return r
		}
	}
	return avail[0]
}
