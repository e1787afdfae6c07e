package cfg

import (
	"prefcolor/internal/ir"
)

// Loop is one natural loop: a header and the set of blocks that reach
// a back edge's source without leaving the header's dominance region.
type Loop struct {
	Header ir.BlockID
	Blocks map[ir.BlockID]bool

	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop

	// Depth is the nesting depth; outermost loops have depth 1.
	Depth int
}

// LoopInfo holds the natural loops of a function and each block's
// nesting depth.
type LoopInfo struct {
	Loops []*Loop

	// depth[b] is the number of loops containing b (0 outside loops).
	depth []int
}

// FindLoops detects natural loops via back edges (edges t→h where h
// dominates t), merging loops that share a header, and computes
// nesting by containment.
func FindLoops(f *ir.Func, dom *DomTree) *LoopInfo {
	byHeader := map[ir.BlockID]*Loop{}
	for _, b := range f.Blocks {
		if !dom.Reachable(b.ID) {
			continue
		}
		for _, s := range b.Succs {
			if !dom.Dominates(s, b.ID) {
				continue // not a back edge
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[ir.BlockID]bool{s: true}}
				byHeader[s] = l
			}
			collectLoopBody(f, dom, l, b.ID)
		}
	}

	li := &LoopInfo{depth: make([]int, len(f.Blocks))}
	for _, l := range byHeader {
		li.Loops = append(li.Loops, l)
	}
	// Deterministic order: by header.
	for i := 1; i < len(li.Loops); i++ {
		for j := i; j > 0 && li.Loops[j].Header < li.Loops[j-1].Header; j-- {
			li.Loops[j], li.Loops[j-1] = li.Loops[j-1], li.Loops[j]
		}
	}

	// Nesting: loop A is the parent of B if A strictly contains B's
	// header and A != B; pick the smallest such container.
	for _, inner := range li.Loops {
		var best *Loop
		for _, outer := range li.Loops {
			if outer == inner || !outer.Blocks[inner.Header] {
				continue
			}
			if best == nil || len(outer.Blocks) < len(best.Blocks) {
				best = outer
			}
		}
		inner.Parent = best
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
		for b := range l.Blocks {
			if d > li.depth[b] {
				li.depth[b] = d
			}
		}
	}
	return li
}

// collectLoopBody adds to l every reachable block that reaches tail
// backwards without passing through the header. Unreachable
// predecessors are excluded: they are not dominated by the header and
// do not execute, so counting them into the loop would inflate their
// frequency estimates.
func collectLoopBody(f *ir.Func, dom *DomTree, l *Loop, tail ir.BlockID) {
	if l.Blocks[tail] {
		return
	}
	stack := []ir.BlockID{tail}
	l.Blocks[tail] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range f.Blocks[b].Preds {
			if !l.Blocks[p] && dom.Reachable(p) {
				l.Blocks[p] = true
				stack = append(stack, p)
			}
		}
	}
}

// Depth returns the loop-nesting depth of block b (0 outside loops).
func (li *LoopInfo) Depth(b ir.BlockID) int { return li.depth[b] }

// freqs[d] is 10^d for every depth up to the cap, which keeps
// frequencies finite and comparable; the paper's single example uses
// one level (factor 10).
var freqs = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// Freq returns the paper's execution-frequency heuristic for block b:
// 10^depth, capped at 10^8. Blocks outside loops have frequency 1,
// matching Freq_Fact(i0)=Freq_Fact(i9)=1 and 10 inside the loop in the
// Appendix.
func (li *LoopInfo) Freq(b ir.BlockID) float64 {
	return freqs[min(li.depth[b], len(freqs)-1)]
}
