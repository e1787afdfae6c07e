package core

import (
	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
)

// The ready set and its indexed priority heap. Membership lives in a
// bitset (readyBits) with a maintained count. In incremental mode the
// heap holds exactly one entry per ready node, ordered by the node's
// memoized priority (priVal), and heapPos[n] is n's index in it (-1
// when absent). Every change to a ready node's priority re-sifts its
// entry on the spot (heapFix), and processing a node removes its entry
// (heapRemove), so the top is always the current winner and chooseNode
// reads it without validation.

// heapBefore orders the heap: higher priority first, ties to the lower
// node id — exactly the winner the reference scan's ascending
// strict-maximum sweep selects. Priorities are never NaN (strength
// differentials are finite, no-preference nodes rank -Inf), so the
// comparison is total.
func (s *selector) heapBefore(a, b ig.NodeID) bool {
	pa, pb := s.priVal[a], s.priVal[b]
	return pa > pb || (pa == pb && a < b)
}

// heapPush adds n under its current priVal.
func (s *selector) heapPush(n ig.NodeID) {
	s.heapPos[n] = int32(len(s.heap))
	s.heap = append(s.heap, n)
	s.heapUp(len(s.heap) - 1)
}

// heapFix restores the order after n's priVal changed.
func (s *selector) heapFix(n ig.NodeID) {
	i := int(s.heapPos[n])
	if !s.heapUp(i) {
		s.heapDown(i)
	}
}

// heapRemove takes n's entry out of the heap.
func (s *selector) heapRemove(n ig.NodeID) {
	i, last := int(s.heapPos[n]), len(s.heap)-1
	s.heapPos[n] = -1
	if i != last {
		m := s.heap[last]
		s.heap[i] = m
		s.heapPos[m] = int32(i)
	}
	s.heap = s.heap[:last]
	if i != last {
		s.heapFix(s.heap[i])
	}
}

// heapUp sifts the entry at i toward the root and reports whether it
// moved.
func (s *selector) heapUp(i int) bool {
	h := s.heap
	n, start := h[i], i
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapBefore(n, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapPos[h[i]] = int32(i)
		i = p
	}
	h[i] = n
	s.heapPos[n] = int32(i)
	return i != start
}

// heapDown sifts the entry at i toward the leaves.
func (s *selector) heapDown(i int) {
	h := s.heap
	n := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && s.heapBefore(h[r], h[c]) {
			c = r
		}
		if !s.heapBefore(h[c], n) {
			break
		}
		h[i] = h[c]
		s.heapPos[h[i]] = int32(i)
		i = c
	}
	h[i] = n
	s.heapPos[n] = int32(i)
}

// isReady reports ready-set membership in O(1).
func (s *selector) isReady(n ig.NodeID) bool {
	return bitset.Has(s.readyBits, int(n))
}

// incremental reports whether the ready heap is in use: not under the
// reference selector, and not under the FIFO ablation, which picks by
// node id alone.
func (s *selector) incremental() bool {
	return !s.refSelect && !s.ab.FIFOPriority
}

// pushReady admits n to the ready set. In incremental mode its
// priority is computed here — n was never ready before, so priOK is
// necessarily down, and no state changes between this step-5 release
// and the next chooseNode, so the value is exactly what the reference
// computes there — and n enters the heap under it.
func (s *selector) pushReady(n ig.NodeID) {
	bitset.Set(s.readyBits, int(n))
	s.readyCount++
	if s.incremental() {
		s.priVal[n], s.priOK[n] = s.priority(n), true
		s.heapPush(n)
	}
}

// dropReady removes n from the ready set and its heap entry.
func (s *selector) dropReady(n ig.NodeID) {
	bitset.Clear(s.readyBits, int(n))
	s.readyCount--
	if s.heapPos[n] >= 0 {
		s.heapRemove(n)
	}
}

// firstReady returns the lowest-id ready node (the FIFOPriority
// ablation's pick), or -1 when none is ready.
func (s *selector) firstReady() ig.NodeID {
	return ig.NodeID(bitset.Next(s.readyBits, 0))
}
