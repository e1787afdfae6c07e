// Package priority implements Chow & Hennessy's priority-based
// coloring, the other school of coloring allocation the paper's
// related-work section (§7) contrasts with Chaitin's: instead of
// packing live ranges through simplification, it assigns registers to
// live ranges in order of their priority — the benefit of register
// residence normalized by the live range's size — accepting that
// high-priority ranges may consume more registers.
//
// This implementation keeps the priority function and the
// constrained/unconstrained split of the original but spills where
// the original would split live ranges (a documented simplification;
// the driver's spill-everywhere machinery then subdivides the range).
package priority

import (
	"sort"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
)

// Allocator is the Chow & Hennessy 1990 algorithm (simplified).
type Allocator struct{}

// New returns the allocator.
func New() *Allocator { return &Allocator{} }

// Name implements regalloc.Allocator.
func (*Allocator) Name() string { return "priority" }

// Allocate implements regalloc.Allocator.
func (*Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k := ctx.Graph, ctx.K()
	res := regalloc.NewResult(g)
	coloring := regalloc.NewColoring(g)

	// Live-range size: the number of instructions at which the web is
	// live (plus one per definition), the denominator of the priority
	// quotient.
	size := make([]float64, ctx.F.NumVirt)
	for _, b := range ctx.F.Blocks {
		ctx.Live.ForEachInstrReverse(b, func(_ int, in *ir.Instr, liveAfter []uint64) {
			for r := bitset.Next(liveAfter, int(ir.FirstVirtual)); r >= 0; r = bitset.Next(liveAfter, r+1) {
				size[r-int(ir.FirstVirtual)]++
			}
			for _, d := range in.Defs {
				if d.IsVirt() {
					size[d.VirtNum()]++
				}
			}
		})
	}

	type ranked struct {
		n   ig.NodeID
		pri float64
	}
	var constrained, unconstrained []ranked
	for _, n := range g.ActiveNodes() {
		w := int(n) - g.NumPhys()
		sz := size[w]
		if sz < 1 {
			sz = 1
		}
		pri := ctx.Costs.MemCost(w) / sz
		if g.Degree(n) >= k {
			constrained = append(constrained, ranked{n, pri})
		} else {
			unconstrained = append(unconstrained, ranked{n, pri})
		}
	}
	byPriority := func(s []ranked) {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].pri != s[j].pri {
				return s[i].pri > s[j].pri
			}
			return s[i].n < s[j].n
		})
	}
	byPriority(constrained)
	byPriority(unconstrained)

	assign := func(n ig.NodeID, mustColor bool) {
		avail := coloring.Available(n, k)
		if len(avail) == 0 {
			if !mustColor && g.SpillCost(n) < regalloc.InfiniteCost {
				res.Spilled = append(res.Spilled, n)
				return
			}
			// A supposedly-unconstrained or infinite-cost web with no
			// color left: spill it anyway and let the driver split it.
			res.Spilled = append(res.Spilled, n)
			return
		}
		coloring.Set(n, regalloc.BiasedPick(g, coloring, n, avail))
	}
	for _, r := range constrained {
		// Negative priority: memory is cheaper than any register.
		if r.pri < 0 && g.SpillCost(r.n) < regalloc.InfiniteCost {
			res.Spilled = append(res.Spilled, r.n)
			continue
		}
		assign(r.n, false)
	}
	for _, r := range unconstrained {
		assign(r.n, true)
	}
	coloring.Fill(res)
	return res, nil
}
