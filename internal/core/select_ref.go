package core

import (
	"math"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// The reference selection oracle: the pre-incremental chooseNode and
// available-register walk (membership now reads the ready bitset
// instead of the old queue []bool, which held identical contents, and
// the walk now writes a register row instead of a list), the full
// neighbor-and-partner invalidation, and recolor's color-free test over
// per-color occupancy rows. WithReferenceSelector routes the allocator
// through these, and the differential tests pin the heap, forbid-mask
// and neighbor-count implementations against them bit for bit — the
// same role TestBuildMatchesReference plays for the graph builder.

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

// invalidateAround is the reference selector's refresh after n is
// processed or evicted: it drops the cached priorities of every
// interference neighbor (available registers may have changed) and
// preference partner (a deferred preference may now be honorable).
// The neighbor walk is a closure-free word loop over the original
// adjacency row.
func (s *selector) invalidateAround(n ig.NodeID) {
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := ig.NodeID(wi << 6)
		for w != 0 {
			s.invalidate(base + ig.NodeID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	s.invalidateSources(n)
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

// buildColorRows fills the per-color occupancy bitsets colorFreeForRef
// reads: node n set in color c's row when n currently wears c < k.
func (s *selector) buildColorRows() {
	g, k := s.ctx.Graph, s.ctx.K()
	s.rcColorBits = scratch.Slice(s.rcColorBits, k*g.WordsPerRow())
	for i := 0; i < g.NumNodes(); i++ {
		if c := s.colorOf(ig.NodeID(i)); c >= 0 && c < k {
			bitset.Set(s.colorRow(c), i)
		}
	}
}

// colorRow returns color c's occupancy row in rcColorBits.
func (s *selector) colorRow(c int) []uint64 {
	words := s.ctx.Graph.WordsPerRow()
	return s.rcColorBits[c*words : (c+1)*words]
}

// colorFreeForRef is colorFreeFor for a color c < k over the occupancy
// bitsets: one AND pass of n's adjacency row against color c's row,
// nonzero words resolved bit by bit against the plan, then a direct
// interference test for the plan's own recolorings.
func (s *selector) colorFreeForRef(n ig.NodeID, c int, plan *planOverlay) bool {
	g := s.ctx.Graph
	cb := s.colorRow(c)
	for wi, w := range g.OrigRow(n) {
		w &= cb[wi]
		base := ig.NodeID(wi << 6)
		for w != 0 {
			nb := base + ig.NodeID(bits.TrailingZeros64(w))
			w &= w - 1
			// A plan member's current color is overridden; its planned
			// color is checked below.
			if _, ok := plan.lookup(nb); !ok {
				return false
			}
		}
	}
	if plan != nil {
		for i, m := range plan.nodes {
			if m != n && plan.colors[i] == c && g.OrigInterferes(n, m) {
				return false
			}
		}
	}
	return true
}
