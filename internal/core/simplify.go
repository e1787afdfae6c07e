package core

import (
	"math"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// removalOrder is one round's optimistic simplification and the
// coloring precedence it implies. stack and potential are the removal
// order and its potential-spill marks; pos, lim and preds, indexed by
// node id, encode §5.2's Coloring Precedence Graph without building it
// (DESIGN §17):
//
//   - pos[n] is n's index in stack;
//   - lim[n] is the position of the removal that made n ready (its WIG
//     degree fell below k), -1 when n was ready from the start, and
//     pos[n]-1 when n was still not ready at its own removal;
//   - preds[n] counts the active web neighbors that were not ready when
//     n was removed: step 7's edges into n.
//
// Web n must be colored before exactly its web neighbors a with
// pos[a] <= lim[n]. That relation is step 7's edge set before the
// transitive reduction, which never changes when a node becomes ready.
//
// The remaining fields are simplify's working state, kept for reuse
// across rounds: the active webs as a bitset, the worklist of active
// webs of degree below k, each web's current degree (WIG degree plus
// its fixed count of physical neighbors, phys) and the spill heap.
type removalOrder struct {
	stack     []ig.NodeID
	potential []bool
	pos       []int32
	lim       []int32
	preds     []int32

	active []uint64
	low    []uint64
	deg    []int32
	phys   []int32
	spill  spillHeap
}

// notReady marks, in lim, a web whose WIG degree is still k or more.
const notReady = math.MinInt32

// simplify empties a copy of g's active webs in Briggs fashion and
// fills o with the removal order, the potential-spill marks (the webs
// removed at significant degree, step 4's "spilled node" clause) and
// the precedence encoding. g is read, never mutated: simplify keeps
// its own active set and degrees over the original adjacency, which
// equals the current one on the uncoalesced graphs this allocator
// sees.
//
// The removal order is that of repeated ascending sweeps over the
// active webs, each removing every node whose degree is below k at the
// moment the sweep reaches it, with a spill pick
// (regalloc.SpillCandidate's lowest cost ÷ degree, ties to the lowest
// id) whenever a whole sweep removes nothing. Instead of sweeping, the
// low bitset holds exactly the active webs of degree below k (remove
// adds a neighbor the moment its degree reaches k-1), and an ascending
// cursor over it plays the sweep: the next set bit at or after the
// cursor is the next node a sweep would remove, and a cursor that runs
// off the end while bits remain starts the next sweep at 0. DESIGN §19
// gives the argument; TestSimplifyMatchesSweep pins it.
func (o *removalOrder) simplify(g *ig.Graph, k int) {
	n, nPhys := g.NumNodes(), g.NumPhys()
	words := bitset.Words(n)
	o.stack = o.stack[:0]
	o.potential = scratch.Slice(o.potential, n)
	o.pos = scratch.Slice(o.pos, n)
	o.lim = scratch.Slice(o.lim, n)
	o.preds = scratch.Slice(o.preds, n)
	o.active = scratch.Slice(o.active, words)
	o.low = scratch.Slice(o.low, words)
	o.deg = scratch.Slice(o.deg, n)
	o.phys = scratch.Slice(o.phys, n)
	o.spill.reset()

	g.ForEachActive(func(v ig.NodeID) { bitset.Set(o.active, int(v)) })
	g.ForEachActive(func(v ig.NodeID) {
		wig, phys := 0, 0
		for wi, w := range g.OrigRow(v) {
			wig += bits.OnesCount64(w & o.active[wi])
			if lo := wi << 6; lo < nPhys {
				if nPhys-lo < 64 {
					w &= 1<<uint(nPhys-lo) - 1
				}
				phys += bits.OnesCount64(w)
			}
		}
		o.deg[v], o.phys[v] = int32(wig+phys), int32(phys)
		if wig+phys < k {
			bitset.Set(o.low, int(v))
		}
		o.lim[v] = notReady
		if wig < k {
			o.lim[v] = -1
		}
	})
	for cur := 0; ; {
		v := bitset.Next(o.low, cur)
		if v < 0 {
			v = bitset.Next(o.low, 0)
		}
		if v < 0 {
			cand := o.spill.pick(g, o)
			if cand < 0 {
				break
			}
			o.potential[cand] = true
			o.remove(g, cand, k)
			cur = 0
			continue
		}
		bitset.Clear(o.low, v)
		o.remove(g, ig.NodeID(v), k)
		cur = v + 1
	}
}

// remove takes web v off the active set as the next stack entry. One
// walk over its active neighbors does steps 7 and 8 of the CPG
// construction: it counts the neighbors not yet ready (v's preds),
// stamps lim on each the removal makes ready, and lowers their
// degrees, adding each that drops below k to the worklist.
func (o *removalOrder) remove(g *ig.Graph, v ig.NodeID, k int) {
	p := int32(len(o.stack))
	o.stack = append(o.stack, v)
	o.pos[v] = p
	if o.lim[v] == notReady {
		o.lim[v] = p - 1
	}
	bitset.Clear(o.active, int(v))
	k32, preds := int32(k), int32(0)
	for wi, w := range g.OrigRow(v) {
		base := wi << 6
		for w &= o.active[wi]; w != 0; w &= w - 1 {
			nb := base + bits.TrailingZeros64(w)
			if wig := o.deg[nb] - o.phys[nb]; wig >= k32 {
				preds++
				if wig == k32 {
					o.lim[nb] = p
				}
			}
			if o.deg[nb]--; o.deg[nb] == k32-1 {
				bitset.Set(o.low, nb)
			}
		}
	}
	o.preds[v] = preds
}

// key is regalloc.SpillKey over simplify's own degrees: spill cost
// over the current degree, with degree 0 counted as 1.
func (o *removalOrder) key(g *ig.Graph, v ig.NodeID) float64 {
	return g.SpillCost(v) / float64(max(o.deg[v], 1))
}

// scanSpill is regalloc.SpillCandidate over simplify's active set: the
// lowest key, ties to the lowest id, -1 when no web is active.
func (o *removalOrder) scanSpill(g *ig.Graph) ig.NodeID {
	best, bestKey := ig.NodeID(-1), 0.0
	for i := bitset.Next(o.active, 0); i >= 0; i = bitset.Next(o.active, i+1) {
		if key := o.key(g, ig.NodeID(i)); best < 0 || key < bestKey {
			best, bestKey = ig.NodeID(i), key
		}
	}
	return best
}

// spillHeap answers simplify's spill picks with a lazy min-heap of
// (key, node) entries, built at the first stall from every active web.
// During simplify degrees only fall, so for a non-negative spill cost
// a node's key only rises: every entry's key is at most its node's
// current key. pick therefore refreshes the top entry until it is
// current (dropping removed nodes); a current top is then no greater
// than any other node's current key, with ties to the lower id —
// scanSpill's answer. A negative or NaN cost (no cost model produces
// one) would let a key fall, so such a graph falls back to the scan.
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

// pick returns the web scanSpill would pick, or -1 when no active web
// remains.
func (sh *spillHeap) pick(g *ig.Graph, o *removalOrder) ig.NodeID {
	if !sh.built {
		sh.built = true
		for i := bitset.Next(o.active, 0); i >= 0; i = bitset.Next(o.active, i+1) {
			v := ig.NodeID(i)
			if !(g.SpillCost(v) >= 0) {
				sh.scan = true
			}
			sh.h = append(sh.h, spillEntry{o.key(g, v), v})
		}
		for i := len(sh.h)/2 - 1; i >= 0; i-- {
			sh.down(i)
		}
	}
	if sh.scan {
		return o.scanSpill(g)
	}
	for len(sh.h) > 0 {
		top := &sh.h[0]
		if !bitset.Has(o.active, int(top.node)) {
			sh.pop()
			continue
		}
		if key := o.key(g, top.node); key != top.key {
			top.key = key
			sh.down(0)
			continue
		}
		v := top.node
		sh.pop()
		return v
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
