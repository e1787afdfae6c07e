package ig

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// NodeID identifies an interference-graph node. Nodes
// 0..NumPhys-1 are the precolored physical registers; node NumPhys+w
// is web w of the renumbered function.
type NodeID int32

// Move records one copy instruction between two nodes, the raw
// material of coalescing. Weight is the execution-frequency estimate
// of the copy (what eliminating it saves).
type Move struct {
	X, Y   NodeID
	Weight float64
}

// Graph is a Chaitin-style interference graph with support for node
// removal (simplification), coalescing with union-find aliasing, and
// an immutable copy of the pre-coalescing adjacency for optimistic
// coalescing's undo phase.
//
// Adjacency is a dense bitset: one []uint64 row per node, bit b of
// row a set when a and b interfere. Edge tests are one word probe,
// neighbor iteration walks set bits in ascending order (so iteration
// is deterministic without sorting), and the whole structure is three
// pointer dereferences away from a contiguous allocation — the inner
// loops of simplification and precedence-graph construction touch no
// hash tables.
type Graph struct {
	nPhys int
	n     int
	words int // per-row length: ceil(n / 64)

	// adj is the current adjacency under coalescing: edges of a
	// merged node accumulate on its representative. Membership is
	// kept even for removed (stacked) nodes; degree tracks only
	// active neighbors. Rows initially slice one shared backing
	// array.
	adj [][]uint64

	// origAdj is frozen at the end of Build: the adjacency before any
	// coalescing, used by optimistic coalescing's undo and by
	// validity checks. Freeze does not copy — each origAdj row
	// aliases the adj row, and the first post-freeze mutation of an
	// adj row gives adj a private copy (copy-on-write), so functions
	// where coalescing touches few nodes never pay for a full
	// duplicate of the graph.
	origAdj [][]uint64

	// shared[i] records that adj[i] still aliases origAdj[i] and must
	// be copied before mutation.
	shared []bool

	alias   []NodeID
	members [][]NodeID
	removed []bool
	degree  []int

	spillCost []float64
	moves     []Move
	nodeMoves [][]int

	// moveStart[b] is the index in moves of block b's first copy, in
	// Build's walk order, and its last entry is len(moves); a spill
	// round's PatchGraph copies a clean block's moves through it.
	moveStart []int
}

// NewGraph returns an empty graph with nPhys precolored nodes and
// nWebs live-range nodes. The physical nodes form a clique.
func NewGraph(nPhys, nWebs int) *Graph {
	g := &Graph{}
	g.reinit(nil, nPhys, nWebs)
	return g
}

// GraphScratch recycles one Graph's storage across builds: the shared
// bitset backing, the per-node slices, and the per-node member and
// move-index rows keep their capacity from round to round. The zero
// value is ready. The *Graph returned by NewGraphIn is owned by the
// scratch — it is valid only until the next NewGraphIn on the same
// scratch, and a scratch must not be shared between goroutines.
type GraphScratch struct {
	g       Graph
	backing []uint64

	// Word rows reused by BuildInto's kernels (live set, volatile
	// mask, call-clobber set), all g.words long.
	liveRow    []uint64
	volRow     []uint64
	clobberRow []uint64

	// PatchGraph's new-web live row, old-to-new node map and row of
	// the old nodes it keeps, and the spare backing and move buffers it
	// keeps the old graph's rows and moves in.
	newRow       []uint64
	nodeMap      []int32
	keep         []uint64
	spareBacking []uint64
	spareMoves   []Move
	spareStart   []int
}

// NewGraphIn is NewGraph reusing ws's storage; a nil ws allocates
// fresh. The returned graph is indistinguishable from a fresh one:
// every field is re-zeroed or re-filled before use.
func NewGraphIn(ws *GraphScratch, nPhys, nWebs int) *Graph {
	if ws == nil {
		return NewGraph(nPhys, nWebs)
	}
	ws.backing = ws.g.reinit(ws.backing, nPhys, nWebs)
	return &ws.g
}

// reinit resets g to an empty graph of the given shape, reusing its
// slices (and the provided bitset backing) when capacity allows. It
// returns the backing so the caller can recycle it next build.
func (g *Graph) reinit(backing []uint64, nPhys, nWebs int) []uint64 {
	n := nPhys + nWebs
	words := bitset.Words(n)
	g.nPhys, g.n, g.words = nPhys, n, words
	backing = scratch.Slice(backing, n*words)
	g.adj = scratch.Slice(g.adj, n)
	g.origAdj = scratch.Slice(g.origAdj, n)
	g.shared = scratch.Slice(g.shared, n)
	g.removed = scratch.Slice(g.removed, n)
	g.degree = scratch.Slice(g.degree, n)
	g.spillCost = scratch.Slice(g.spillCost, n)
	g.moves = g.moves[:0]
	g.moveStart = g.moveStart[:0]
	g.nodeMoves = scratch.Rows(g.nodeMoves, n)
	if cap(g.alias) < n {
		g.alias = make([]NodeID, n)
	}
	g.alias = g.alias[:n]
	if cap(g.members) < n {
		grown := make([][]NodeID, n)
		copy(grown, g.members)
		g.members = grown
	}
	g.members = g.members[:n]
	for i := 0; i < n; i++ {
		g.adj[i] = backing[i*words : (i+1)*words : (i+1)*words]
		g.alias[i] = NodeID(i)
		g.members[i] = append(g.members[i][:0], NodeID(i))
	}
	// The physical registers form a clique: every phys row gets all
	// phys bits except its own, written a word at a time.
	for a := 0; a < nPhys; a++ {
		row := g.adj[a]
		for wi := 0; wi<<6 < nPhys; wi++ {
			w := ^uint64(0)
			if rem := nPhys - wi<<6; rem < 64 {
				w = 1<<uint(rem) - 1
			}
			row[wi] = w
		}
		bitset.Clear(row, a)
		g.degree[a] = nPhys - 1
	}
	return backing
}

// row returns node n's adjacency row for writing, detaching it from
// the frozen original first if Freeze left them aliased.
func (g *Graph) row(n NodeID) []uint64 {
	if g.shared[n] {
		g.adj[n] = append(make([]uint64, 0, g.words), g.adj[n]...)
		g.shared[n] = false
	}
	return g.adj[n]
}

// NumPhys returns the number of precolored nodes.
func (g *Graph) NumPhys() int { return g.nPhys }

// NumNodes returns the total node count (physical + webs).
func (g *Graph) NumNodes() int { return g.n }

// NumWebs returns the number of live-range nodes.
func (g *Graph) NumWebs() int { return g.n - g.nPhys }

// IsPhys reports whether n is a precolored physical-register node.
func (g *Graph) IsPhys(n NodeID) bool { return int(n) < g.nPhys }

// PhysColor returns the register number of a physical node.
func (g *Graph) PhysColor(n NodeID) int {
	if !g.IsPhys(n) {
		panic(fmt.Sprintf("ig.Graph.PhysColor: node %d is not physical", n))
	}
	return int(n)
}

// NodeOf maps a register of the renumbered function to its node.
func (g *Graph) NodeOf(r ir.Reg) NodeID {
	if r.IsPhys() {
		return NodeID(r.PhysNum())
	}
	return NodeID(g.nPhys + r.VirtNum())
}

// RegOf maps a node back to a register.
func (g *Graph) RegOf(n NodeID) ir.Reg {
	if g.IsPhys(n) {
		return ir.Phys(int(n))
	}
	return ir.Virt(int(n) - g.nPhys)
}

// AddEdge records interference between a and b (no-op for a == b).
// Only valid during construction and coalescing; callers elsewhere use
// Coalesce.
func (g *Graph) AddEdge(a, b NodeID) {
	if a == b {
		return
	}
	if !bitset.Has(g.adj[a], int(b)) {
		bitset.Set(g.row(a), int(b))
		bitset.Set(g.row(b), int(a))
		if !g.removed[b] {
			g.degree[a]++
		}
		if !g.removed[a] {
			g.degree[b]++
		}
	}
}

// Freeze snapshots the current adjacency as the "original" graph.
// Build calls it once; tests may too. The snapshot is copy-on-write:
// rows are shared with the live adjacency until the live side mutates
// them.
func (g *Graph) Freeze() {
	for i := 0; i < g.n; i++ {
		g.origAdj[i] = g.adj[i]
		g.shared[i] = true
	}
}

// Find resolves coalescing aliases to the current representative.
func (g *Graph) Find(n NodeID) NodeID {
	for g.alias[n] != n {
		g.alias[n] = g.alias[g.alias[n]]
		n = g.alias[n]
	}
	return n
}

// Interferes reports whether the representatives of a and b share an
// edge in the current graph.
func (g *Graph) Interferes(a, b NodeID) bool {
	a, b = g.Find(a), g.Find(b)
	return bitset.Has(g.adj[a], int(b))
}

// OrigInterferes reports interference in the pre-coalescing graph.
func (g *Graph) OrigInterferes(a, b NodeID) bool {
	row := g.origAdj[a] // nil until Freeze
	return row != nil && bitset.Has(row, int(b))
}

// Degree returns the number of active (not removed, not aliased)
// neighbors of a representative node. Physical nodes report a degree
// of at least NumNodes, making them significant for every K.
func (g *Graph) Degree(n NodeID) int {
	if g.IsPhys(n) {
		return g.n + g.nPhys
	}
	return g.degree[n]
}

// Significant reports whether node n has K or more active neighbors
// (or is precolored).
func (g *Graph) Significant(n NodeID, k int) bool {
	return g.IsPhys(n) || g.degree[n] >= k
}

// Removed reports whether n has been removed (pushed on the
// simplification stack).
func (g *Graph) Removed(n NodeID) bool { return g.removed[n] }

// Remove takes a representative node out of the active graph,
// decrementing its active neighbors' degrees. It panics on physical
// or aliased nodes.
func (g *Graph) Remove(n NodeID) { g.RemoveMarkLow(n, 0, nil) }

// RemoveMarkLow is Remove for a simplification worklist: every active
// web neighbor whose degree drops to exactly k-1 (it just became
// removable at k colors) gets its bit set in low. Neighbors already
// below k are not re-marked, so a worklist that starts as the active
// webs of degree below k stays exactly that set as long as the caller
// clears a node's bit when it removes the node. A nil low marks
// nothing.
func (g *Graph) RemoveMarkLow(n NodeID, k int, low []uint64) {
	if g.IsPhys(n) {
		panic("ig.Graph.Remove: cannot remove a physical node")
	}
	if g.alias[n] != n {
		panic("ig.Graph.Remove: node is coalesced away")
	}
	if g.removed[n] {
		panic("ig.Graph.Remove: node already removed")
	}
	g.removed[n] = true
	for wi, w := range g.adj[n] {
		base := wi << 6
		for w != 0 {
			nb := base + bits.TrailingZeros64(w)
			w &= w - 1
			if g.removed[nb] || g.alias[nb] != NodeID(nb) {
				continue
			}
			g.degree[nb]--
			if low != nil && g.degree[nb] == k-1 && nb >= g.nPhys {
				bitset.Set(low, nb)
			}
		}
	}
}

// ForEachNeighbor calls fn for every current neighbor of the
// representative n (including removed ones), in ascending node order;
// fn's argument is itself a representative.
func (g *Graph) ForEachNeighbor(n NodeID, fn func(nb NodeID)) {
	row := g.adj[n]
	for nb := bitset.Next(row, 0); nb >= 0; nb = bitset.Next(row, nb+1) {
		fn(NodeID(nb))
	}
}

// Neighbors returns the current neighbors of n in ascending order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, bitset.Count(g.adj[n]))
	g.ForEachNeighbor(n, func(nb NodeID) { out = append(out, nb) })
	return out
}

// OrigNeighbors returns the pre-coalescing neighbors of an original
// node in ascending order.
func (g *Graph) OrigNeighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, bitset.Count(g.origAdj[n]))
	g.ForEachOrigNeighbor(n, func(nb NodeID) { out = append(out, nb) })
	return out
}

// ForEachOrigNeighbor visits the pre-coalescing neighbors of an
// original node in ascending order, without allocating — the hot
// path for availability checks.
func (g *Graph) ForEachOrigNeighbor(n NodeID, fn func(nb NodeID)) {
	row := g.origAdj[n]
	for nb := bitset.Next(row, 0); nb >= 0; nb = bitset.Next(row, nb+1) {
		fn(NodeID(nb))
	}
}

// OrigRow exposes node n's pre-coalescing adjacency as a raw bitset
// row (bit b set when n and b interfere), for callers whose inner
// loops cannot afford ForEachOrigNeighbor's per-bit closure call.
// The row is shared storage, WordsPerRow words long, and must not be
// mutated.
func (g *Graph) OrigRow(n NodeID) []uint64 { return g.origAdj[n] }

// WordsPerRow returns the bitset row length in 64-bit words.
func (g *Graph) WordsPerRow() int { return g.words }

// Members returns the original nodes merged into representative n
// (including n itself).
func (g *Graph) Members(n NodeID) []NodeID { return g.members[n] }

// Coalesce merges node b into node a (both resolved to
// representatives first). If either is physical, the physical node
// becomes the representative. It panics if the nodes interfere, are
// equal, are both physical, or if either was already removed.
// It returns the representative.
func (g *Graph) Coalesce(a, b NodeID) NodeID {
	a, b = g.Find(a), g.Find(b)
	switch {
	case a == b:
		panic("ig.Graph.Coalesce: same node")
	case g.Interferes(a, b):
		panic("ig.Graph.Coalesce: interfering nodes")
	case g.IsPhys(a) && g.IsPhys(b):
		panic("ig.Graph.Coalesce: two physical nodes")
	case g.removed[a] || g.removed[b]:
		panic("ig.Graph.Coalesce: removed node")
	}
	rep, loser := a, b
	if g.IsPhys(b) {
		rep, loser = b, a
	}
	// rep is never a neighbor of loser (they don't interfere), so
	// rep's row can be fetched once without the loop invalidating it.
	repRow := g.row(rep)
	lr := g.row(loser)
	for i := bitset.Next(lr, 0); i >= 0; i = bitset.Next(lr, i+1) {
		nb := NodeID(i)
		nbRow := g.row(nb)
		bitset.Clear(nbRow, int(loser))
		if bitset.Has(nbRow, int(rep)) {
			// nb had both endpoints as distinct neighbors; it keeps
			// only the representative.
			if !g.removed[nb] && !g.IsPhys(nb) {
				g.degree[nb]--
			}
			continue
		}
		bitset.Set(nbRow, int(rep))
		bitset.Set(repRow, i)
		if !g.removed[nb] && !g.IsPhys(rep) {
			g.degree[rep]++
		}
	}
	clear(lr)
	g.degree[loser] = 0
	g.alias[loser] = rep
	g.members[rep] = append(g.members[rep], g.members[loser]...)
	g.members[loser] = g.members[loser][:0]
	g.spillCost[rep] += g.spillCost[loser]
	g.nodeMoves[rep] = append(g.nodeMoves[rep], g.nodeMoves[loser]...)
	g.nodeMoves[loser] = g.nodeMoves[loser][:0]
	return rep
}

// Aliased reports whether n has been coalesced into another node.
func (g *Graph) Aliased(n NodeID) bool { return g.alias[n] != n }

// SetSpillCost attaches the cost-model estimate for node n.
func (g *Graph) SetSpillCost(n NodeID, c float64) { g.spillCost[n] = c }

// SpillCost returns the (coalescing-accumulated) spill cost of a
// representative node.
func (g *Graph) SpillCost(n NodeID) float64 { return g.spillCost[n] }

// AddMove records a copy between two nodes and indexes it on both.
func (g *Graph) AddMove(x, y NodeID, w float64) {
	if x == y {
		return
	}
	idx := len(g.moves)
	g.moves = append(g.moves, Move{X: x, Y: y, Weight: w})
	g.nodeMoves[x] = append(g.nodeMoves[x], idx)
	g.nodeMoves[y] = append(g.nodeMoves[y], idx)
}

// Moves returns all recorded copies (endpoints are original node ids;
// resolve with Find).
func (g *Graph) Moves() []Move { return g.moves }

// NodeMoves returns indices into Moves() touching representative n.
func (g *Graph) NodeMoves(n NodeID) []int { return g.nodeMoves[n] }

// MoveRelated reports whether representative n still has a copy to a
// node it does not interfere with (an outstanding coalescing
// opportunity).
func (g *Graph) MoveRelated(n NodeID) bool {
	for _, mi := range g.nodeMoves[n] {
		m := g.moves[mi]
		x, y := g.Find(m.X), g.Find(m.Y)
		if x == y {
			continue
		}
		other := x
		if x == n {
			other = y
		}
		if !g.Interferes(n, other) {
			return true
		}
	}
	return false
}

// ActiveNodes returns all web representatives still in the graph
// (not removed, not aliased), in ascending order.
func (g *Graph) ActiveNodes() []NodeID {
	var out []NodeID
	g.ForEachActive(func(n NodeID) { out = append(out, n) })
	return out
}

// ForEachActive visits every web representative still in the graph
// (not removed, not aliased) in ascending order without allocating.
// Nodes removed by fn during the walk are not revisited; nodes cannot
// become active mid-walk, so the visit set matches an ActiveNodes
// snapshot taken at the start.
func (g *Graph) ForEachActive(fn func(n NodeID)) {
	for i := g.nPhys; i < g.n; i++ {
		n := NodeID(i)
		if !g.removed[n] && g.alias[n] == n {
			fn(n)
		}
	}
}
