package regalloc

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// This file keeps the interference-edge walk that CheckResult's color
// rows replaced, as the reference TestCheckResultMatchesEdgeWalk
// compares against on every round: same verdict, same error text.

// RefCheckResult exports the reference to the external test package,
// which can import the allocators that produce the rounds.
var RefCheckResult = refCheckResult

// refCheckResult is CheckResult walking every interference edge of
// every colored web, in its own scratch.
func refCheckResult(ctx *Context, res *Result) error {
	g := ctx.Graph
	spilled := make([]bool, g.NumNodes())
	color := scratch.Fill(nil, g.NumNodes(), -1)
	for _, s := range res.Spilled {
		spilled[s] = true
	}
	for i := 0; i < g.NumPhys(); i++ {
		color[i] = i
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		if spilled[n] || spilled[g.Find(n)] {
			if ctx.SpillTemp[w] {
				return fmt.Errorf("regalloc: spill temporary v%d was spilled again", w)
			}
			continue
		}
		c, ok := res.ColorOf(g, n)
		if !ok {
			if len(res.Spilled) == 0 {
				return fmt.Errorf("regalloc: web v%d neither colored nor spilled", w)
			}
			continue
		}
		if c < 0 || c >= ctx.K() {
			return fmt.Errorf("regalloc: web v%d got out-of-range register %d", w, c)
		}
		color[n] = c
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		if color[n] < 0 {
			continue
		}
		for wi, bw := range g.OrigRow(n) {
			base := ig.NodeID(wi << 6)
			for ; bw != 0; bw &= bw - 1 {
				nb := base + ig.NodeID(bits.TrailingZeros64(bw))
				if color[nb] >= 0 && color[nb] == color[n] {
					return fmt.Errorf("regalloc: interfering nodes %v and %v share r%d",
						g.RegOf(n), g.RegOf(nb), color[n])
				}
			}
		}
	}
	return nil
}
