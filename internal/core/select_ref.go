package core

import (
	"math"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
)

// The reference selection oracle: the pre-incremental chooseNode and
// available-register walk (membership now reads the ready bitset
// instead of the old queue []bool, which held identical contents, and
// the walk now writes a register row instead of a list).
// WithReferenceSelector routes the allocator through these, and the
// differential tests pin the heap/forbid-mask implementations against
// them bit for bit — the same role TestBuildMatchesReference plays for
// the graph builder.

// chooseNodeRef scans every node ascending and keeps the first
// strict-maximum priority, computing stale priorities inline.
func (s *selector) chooseNodeRef() ig.NodeID {
	// The scan runs in ascending node order, which both keeps
	// tie-breaking deterministic and matches the sorted iteration the
	// map-based implementation paid a sort for.
	best := ig.NodeID(-1)
	bestPri := math.Inf(-1)
	for i := 0; i < s.ctx.Graph.NumNodes(); i++ {
		n := ig.NodeID(i)
		if !s.isReady(n) {
			continue
		}
		if s.ab.FIFOPriority {
			return n
		}
		if !s.priOK[n] {
			s.priVal[n] = s.priority(n)
			s.priOK[n] = true
		}
		if pri := s.priVal[n]; best < 0 || pri > bestPri {
			best, bestPri = n, pri
		}
	}
	return best
}

// availRowRef rebuilds n's candidate set from a full neighbor walk:
// mark every color a colored original-graph neighbor holds, then keep
// the unmarked registers below k.
func (s *selector) availRowRef(dst []uint64, n ig.NodeID) {
	k := s.ctx.K()
	clear(dst)
	s.ctx.Graph.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
		if c := s.color[nb]; c >= 0 && c < k {
			bitset.Set(dst, c)
		}
	})
	for i, w := range dst {
		dst[i] = ^w & s.allRegs[i]
	}
}
