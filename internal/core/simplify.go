package core

import (
	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/scratch"
)

// simplifyOptimistic empties the graph in Briggs fashion, returning
// the removal order and which nodes were removed at significant
// degree (the potential spills of step 4's "spilled node" clause),
// as a node-id-indexed mark slice. The graph is left fully removed;
// selection works off the original adjacency, as §5.3 prescribes
// ("add the chosen node to the interference graph").
func simplifyOptimistic(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	return simplifyOptimisticInto(nil, g, k)
}

// simplifyOptimisticInto is simplifyOptimistic drawing its buffers from
// the workspace scratch (nil cs allocates fresh).
//
// The removal order is that of repeated ascending sweeps over the
// active webs, each removing every node whose degree is below k at the
// moment the sweep reaches it, with a spill pick
// (regalloc.SpillCandidate's lowest cost ÷ degree, ties to the lowest
// id) whenever a whole sweep removes nothing. Instead of sweeping, the
// low bitset holds exactly the active webs of degree below k
// (RemoveMarkLow adds a neighbor the moment its degree reaches k-1), and
// an ascending cursor over it plays the sweep: the next set bit at or
// after the cursor is the next node a sweep would remove, and a cursor
// that runs off the end while bits remain starts the next sweep at 0.
// DESIGN §19 gives the argument; TestSimplifyMatchesSweep pins it.
func simplifyOptimisticInto(cs *coreScratch, g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	var order []ig.NodeID
	var potential []bool
	var low []uint64
	var spill *spillHeap
	if cs != nil {
		order = cs.order[:0]
		cs.potential = scratch.Slice(cs.potential, g.NumNodes())
		potential = cs.potential
		cs.low = scratch.Slice(cs.low, bitset.Words(g.NumNodes()))
		low = cs.low
		spill = &cs.spill
		spill.reset()
	} else {
		potential = make([]bool, g.NumNodes())
		low = make([]uint64, bitset.Words(g.NumNodes()))
		spill = &spillHeap{}
	}
	g.ForEachActive(func(n ig.NodeID) {
		if g.Degree(n) < k {
			bitset.Set(low, int(n))
		}
	})
	for cur := 0; ; {
		n := bitset.Next(low, cur)
		if n < 0 {
			n = bitset.Next(low, 0)
		}
		if n < 0 {
			cand := spill.pick(g)
			if cand < 0 {
				break
			}
			potential[cand] = true
			g.RemoveMarkLow(cand, k, low)
			order = append(order, cand)
			cur = 0
			continue
		}
		bitset.Clear(low, n)
		g.RemoveMarkLow(ig.NodeID(n), k, low)
		order = append(order, ig.NodeID(n))
		cur = n + 1
	}
	if cs != nil {
		cs.order = order
	}
	return order, potential
}

// spillHeap answers simplify's spill picks with a lazy min-heap of
// (regalloc.SpillKey, node) entries, built at the first stall from
// every active web. During simplify degrees only fall, so for a
// non-negative spill cost a node's key only rises: every entry's key is
// at most its node's current key. pick therefore refreshes the top
// entry until it is current (dropping removed nodes); a current top is
// then no greater than any other node's current key, with ties to the
// lower id — regalloc.SpillCandidate's answer. A negative or NaN cost
// (no cost model produces one) would let a key fall, so such a graph
// falls back to SpillCandidate's scan.
type spillHeap struct {
	h     []spillEntry
	built bool
	scan  bool
}

type spillEntry struct {
	key  float64
	node ig.NodeID
}

func spillBefore(a, b spillEntry) bool {
	return a.key < b.key || (a.key == b.key && a.node < b.node)
}

func (sh *spillHeap) reset() {
	sh.h = sh.h[:0]
	sh.built, sh.scan = false, false
}

// pick returns the node SpillCandidate would pick, or -1 when no
// active web remains.
func (sh *spillHeap) pick(g *ig.Graph) ig.NodeID {
	if !sh.built {
		sh.built = true
		g.ForEachActive(func(n ig.NodeID) {
			if !(g.SpillCost(n) >= 0) {
				sh.scan = true
			}
			sh.h = append(sh.h, spillEntry{regalloc.SpillKey(g, n), n})
		})
		for i := len(sh.h)/2 - 1; i >= 0; i-- {
			sh.down(i)
		}
	}
	if sh.scan {
		return regalloc.SpillCandidate(g)
	}
	for len(sh.h) > 0 {
		top := &sh.h[0]
		if g.Removed(top.node) {
			sh.pop()
			continue
		}
		if key := regalloc.SpillKey(g, top.node); key != top.key {
			top.key = key
			sh.down(0)
			continue
		}
		n := top.node
		sh.pop()
		return n
	}
	return -1
}

func (sh *spillHeap) pop() {
	last := len(sh.h) - 1
	sh.h[0] = sh.h[last]
	sh.h = sh.h[:last]
	sh.down(0)
}

func (sh *spillHeap) down(i int) {
	h := sh.h
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && spillBefore(h[l], h[m]) {
			m = l
		}
		if r < len(h) && spillBefore(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
