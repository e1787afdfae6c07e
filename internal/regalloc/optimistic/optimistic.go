// Package optimistic implements Park & Moon's optimistic coalescing
// (the paper's Figure 2(b)): coalesce aggressively up front to harvest
// the positive effect of coalescing, and undo coalesces at select time
// when a merged node turns out uncolorable — split it, color the
// largest-benefit subset with one "primary" color, defer the rest to
// the bottom of the stack, and spill only what still cannot be
// colored.
package optimistic

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/regalloc/briggs"
)

// Allocator is the Park & Moon 1998 algorithm.
type Allocator struct{}

// New returns the allocator.
func New() *Allocator { return &Allocator{} }

// Name implements regalloc.Allocator.
func (*Allocator) Name() string { return "optimistic" }

// Allocate implements regalloc.Allocator.
func (*Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	regalloc.AggressiveCoalesce(g)
	stack := briggs.OptimisticSimplify(g, k)

	// Select works at the granularity of original (pre-coalescing)
	// nodes so that an undone coalesce can give members different
	// colors while neighbors still see every conflict.
	color := make([]int, g.NumNodes())
	for i := range color {
		color[i] = -1
	}
	for i := 0; i < g.NumPhys(); i++ {
		color[i] = i
	}
	// Webs coalesced directly into physical registers are never on
	// the stack; their members wear the physical color from the
	// start.
	for n := g.NumPhys(); n < g.NumNodes(); n++ {
		if rep := g.Find(ig.NodeID(n)); g.IsPhys(rep) {
			color[n] = g.PhysColor(rep)
		}
	}

	res := regalloc.NewResult(g)

	availFor := func(members []ig.NodeID) []int {
		used := make([]bool, k)
		for _, m := range members {
			g.ForEachOrigNeighbor(m, func(nb ig.NodeID) {
				if c := color[nb]; c >= 0 && c < k {
					used[c] = true
				}
			})
		}
		var out []int
		for r := 0; r < k; r++ {
			if !used[r] {
				out = append(out, r)
			}
		}
		return out
	}
	setColor := func(members []ig.NodeID, c int) {
		for _, m := range members {
			color[m] = c
			res.Colors[m] = c
		}
	}
	// biasedPick prefers a color already worn by a copy partner.
	biasedPick := func(n ig.NodeID, avail []int) int {
		inAvail := func(c int) bool {
			for _, a := range avail {
				if a == c {
					return true
				}
			}
			return false
		}
		bestC, bestW := -1, 0.0
		for _, m := range g.Members(n) {
			for _, mi := range g.NodeMoves(m) {
				mv := g.Moves()[mi]
				other := mv.X
				if other == m {
					other = mv.Y
				}
				if c := color[other]; c >= 0 && inAvail(c) && (bestC < 0 || mv.Weight > bestW) {
					bestC, bestW = c, mv.Weight
				}
			}
		}
		if bestC >= 0 {
			return bestC
		}
		return avail[0]
	}

	var deferred []ig.NodeID
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		members := g.Members(n)
		if avail := availFor(members); len(avail) > 0 {
			setColor(members, biasedPick(n, avail))
			continue
		}
		if len(members) <= 1 {
			res.Spilled = append(res.Spilled, n)
			continue
		}
		// Undo the coalesce: pick the primary color covering the most
		// spill cost among the members, defer the rest.
		bestColor, bestWeight := -1, 0.0
		var bestSet []ig.NodeID
		for c := 0; c < k; c++ {
			var set []ig.NodeID
			weight := 0.0
			for _, m := range members {
				if memberColorFree(g, color, m, c) {
					set = append(set, m)
					weight += memberCost(ctx, m)
				}
			}
			if len(set) > 0 && (bestColor < 0 || weight > bestWeight) {
				bestColor, bestWeight, bestSet = c, weight, set
			}
		}
		if bestColor < 0 {
			// No member is colorable here and now: all spill.
			res.Spilled = append(res.Spilled, members...)
			continue
		}
		setColor(bestSet, bestColor)
		inBest := map[ig.NodeID]bool{}
		for _, m := range bestSet {
			inBest[m] = true
		}
		for _, m := range members {
			if !inBest[m] {
				deferred = append(deferred, m)
			}
		}
	}

	// "The other is inserted at the bottom of the stack": deferred
	// members are colored after everything else, individually.
	for _, m := range deferred {
		if avail := availFor([]ig.NodeID{m}); len(avail) > 0 {
			setColor([]ig.NodeID{m}, avail[0])
		} else {
			res.Spilled = append(res.Spilled, m)
		}
	}
	return res, nil
}

func memberColorFree(g *ig.Graph, color []int, m ig.NodeID, c int) bool {
	free := true
	g.ForEachOrigNeighbor(m, func(nb ig.NodeID) {
		if color[nb] == c {
			free = false
		}
	})
	return free
}

func memberCost(ctx *regalloc.Context, m ig.NodeID) float64 {
	if ctx.Graph.IsPhys(m) {
		return 0
	}
	return ctx.Costs.MemCost(int(m) - ctx.Graph.NumPhys())
}
