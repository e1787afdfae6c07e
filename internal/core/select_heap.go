package core

import (
	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
)

// The ready set and its lazy priority heap. Membership lives in a
// bitset (readyBits) with a maintained count; the heap carries
// (priority, node) entries that chooseNode validates on pop, so
// superseded entries cost one comparison instead of a tombstone
// protocol. Entries are pushed when a node becomes ready and whenever
// a ready node's priority is refreshed (invalidate, or chooseNode
// finding priOK down), which keeps the invariant chooseNode relies
// on: every ready node always has an entry carrying its current
// priVal, so the true maximum is never buried under a stale key.

// priEntry is one lazy-heap element: a node and the priority it was
// pushed under.
type priEntry struct {
	pri  float64
	node ig.NodeID
}

// priBefore orders the heap: higher priority first, ties to the lower
// node id — exactly the winner the reference scan's ascending
// strict-maximum sweep selects. Priorities are never NaN (strength
// differentials are finite, no-preference nodes rank -Inf), so the
// comparison is total.
func priBefore(a, b priEntry) bool {
	return a.pri > b.pri || (a.pri == b.pri && a.node < b.node)
}

func (s *selector) heapPush(e priEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !priBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *selector) heapPop() {
	h := s.heap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && priBefore(h[l], h[m]) {
			m = l
		}
		if r < len(h) && priBefore(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
}

// isReady reports ready-set membership in O(1).
func (s *selector) isReady(n ig.NodeID) bool {
	return bitset.Has(s.readyBits, int(n))
}

// pushReady admits n to the ready set. In incremental mode its
// priority is computed here — n was never ready before, so priOK is
// necessarily down, and no state changes between this step-5 release
// and the next chooseNode, so the value is exactly what the reference
// computes there — and a heap entry is pushed under it.
func (s *selector) pushReady(n ig.NodeID) {
	bitset.Set(s.readyBits, int(n))
	s.readyCount++
	if !s.refSelect && !s.ab.FIFOPriority {
		pri := s.priority(n)
		s.priVal[n], s.priOK[n] = pri, true
		s.heapPush(priEntry{pri: pri, node: n})
	}
}

// dropReady removes n from the ready set; its heap entries die lazily
// on their next pop.
func (s *selector) dropReady(n ig.NodeID) {
	bitset.Clear(s.readyBits, int(n))
	s.readyCount--
}

// firstReady returns the lowest-id ready node (the FIFOPriority
// ablation's pick), or -1 when none is ready.
func (s *selector) firstReady() ig.NodeID {
	return ig.NodeID(bitset.Next(s.readyBits, 0))
}
