package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// Top and Bottom are the CPG's order-boundary pseudo-nodes. An edge
// a→b means a must be colored no later than b becomes colorable; Top
// precedes everything it points to, Bottom follows everything pointing
// to it.
const (
	Top    ig.NodeID = -1
	Bottom ig.NodeID = -2
)

// cpgIdx maps a node id to its slot in the CPG's slice-indexed
// storage: Bottom and Top occupy the first two slots, real nodes
// follow at id+2.
func cpgIdx(n ig.NodeID) int { return int(n) + 2 }

// CPG is the Coloring Precedence Graph (§5.2): the partial order on
// register-selection obtained by relaxing the simplification stack's
// total order without giving up the colorability the stack guarantees.
// Edges live in successor rows: one bitset per slot (node id + 2, so
// Bottom and Top take slots 0 and 1) over the same slot space, sized
// for the graph the CPG was last built for. Predecessors are derived
// from the rows when asked for.
type CPG struct {
	slots int      // number of slots: real nodes plus the two pseudo-nodes
	words int      // words per row
	rows  []uint64 // successor rows, slot-major

	// Construction-only scratch, reused across rebuilds of this CPG
	// (buildCPGInto): the descendant set of every popped node, laid out
	// like rows; stack membership as a bitset shaped like the graph's
	// adjacency rows (so degree restriction is a word-AND and popcount
	// against OrigRow); WIG degrees, CPG membership, readiness, and the
	// per-pop remaining-neighbor list.
	desc        []uint64
	presentBits []uint64
	wigDeg      []int
	inCPG       []bool
	ready       []bool
	remaining   []ig.NodeID

	nodes []uint64 // one row: nodeRow's result
}

// reset empties the graph and sizes it for nodes real nodes, keeping
// the backing arrays.
func (c *CPG) reset(nodes int) {
	c.slots = nodes + 2
	c.words = bitset.Words(c.slots)
	c.rows = scratch.Slice(c.rows, c.slots*c.words)
}

// row returns the successor row of slot i.
func (c *CPG) row(i int) []uint64 { return c.rows[i*c.words : (i+1)*c.words] }

// succRow returns n's successor row, nil when n has no slot.
func (c *CPG) succRow(n ig.NodeID) []uint64 {
	if i := cpgIdx(n); i >= 0 && i < c.slots {
		return c.row(i)
	}
	return nil
}

// nodeRow returns, as a row over the slot space, every real node the
// CPG mentions: those with a successor or a predecessor. The row is
// c's own scratch, valid until the next call.
func (c *CPG) nodeRow() []uint64 {
	c.nodes = scratch.Slice(c.nodes, c.words)
	for i := 0; i < c.slots; i++ {
		empty := true
		for wi, w := range c.row(i) {
			c.nodes[wi] |= w
			empty = empty && w == 0
		}
		if !empty {
			bitset.Set(c.nodes, i)
		}
	}
	bitset.Clear(c.nodes, cpgIdx(Bottom))
	bitset.Clear(c.nodes, cpgIdx(Top))
	return c.nodes
}

// BuildCPG runs the paper's nine-step construction.
//
// stack is the simplification stack in removal order (stack[0] was
// removed first — the paper's RS pops in exactly this order);
// potentialSpill, indexed by node id, marks the stack entries that
// were removed at significant degree (optimistic simplification's
// "spilled" marks). The working interference graph is the original
// graph minus its physical nodes, per step 2.
func BuildCPG(g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) (*CPG, error) {
	c := &CPG{}
	if err := buildCPGInto(c, g, stack, potentialSpill, k); err != nil {
		return nil, err
	}
	return c, nil
}

// buildCPGInto is BuildCPG targeting a caller-owned (possibly
// previously used) CPG: the graph is reset and rebuilt in its existing
// storage, and all construction scratch lives on the CPG itself.
func buildCPGInto(c *CPG, g *ig.Graph, stack []ig.NodeID, potentialSpill []bool, k int) error {
	c.reset(g.NumNodes())
	c.desc = scratch.Slice(c.desc, len(c.rows))

	c.presentBits = scratch.Slice(c.presentBits, g.WordsPerRow())
	present := c.presentBits
	for _, n := range stack {
		if g.IsPhys(n) {
			return fmt.Errorf("core.BuildCPG: physical node %d on the stack", n)
		}
		if bitset.Has(present, int(n)) {
			return fmt.Errorf("core.BuildCPG: node %d on the stack twice", n)
		}
		bitset.Set(present, int(n))
	}

	// WIG degrees: original adjacency restricted to stack (web) nodes —
	// per node, one AND-and-popcount pass over the row instead of a
	// closure call per set bit.
	c.wigDeg = scratch.Slice(c.wigDeg, g.NumNodes())
	wigDeg := c.wigDeg
	for _, n := range stack {
		d := 0
		for wi, w := range g.OrigRow(n) {
			d += bits.OnesCount64(w & present[wi])
		}
		wigDeg[n] = d
	}

	c.inCPG = scratch.Slice(c.inCPG, g.NumNodes())
	c.ready = scratch.Slice(c.ready, g.NumNodes())
	inCPG, ready := c.inCPG, c.ready

	// Step 4: initial low-degree nodes (ready) and potential-spill
	// nodes (not ready) hang off Bottom.
	for _, n := range stack {
		switch {
		case wigDeg[n] < k:
			inCPG[n] = true
			c.addEdge(n, Bottom)
			ready[n] = true
		case int(n) < len(potentialSpill) && potentialSpill[n]:
			inCPG[n] = true
			c.addEdge(n, Bottom)
		}
	}
	bitset.Set(c.desc, cpgIdx(Bottom))

	// Steps 5–9: replay the removal sequence.
	remaining := c.remaining
	defer func() { c.remaining = remaining }()
	for _, n := range stack {
		bitset.Clear(present, int(n))
		if !inCPG[n] {
			return fmt.Errorf("core.BuildCPG: node %d popped before appearing in the CPG (stack inconsistent with graph)", n)
		}
		// The word loop visits bits in ascending node order, so
		// remaining is already sorted.
		remaining = remaining[:0]
		for wi, w := range g.OrigRow(n) {
			base := ig.NodeID(wi << 6)
			for m := w & present[wi]; m != 0; m &= m - 1 {
				remaining = append(remaining, base+ig.NodeID(bits.TrailingZeros64(m)))
			}
		}

		// n's row is final: edges only ever change in rows of nodes
		// still on the stack, and every successor of n is Bottom or was
		// popped earlier, with its descendant set already final. So
		// desc(n) = {n} ∪ ⋃ desc(s) over n's successors.
		ni := cpgIdx(n)
		d := c.desc[ni*c.words : (ni+1)*c.words]
		succs := c.row(ni)
		for si := bitset.Next(succs, 0); si >= 0; si = bitset.Next(succs, si+1) {
			for j, x := range c.desc[si*c.words : (si+1)*c.words] {
				d[j] |= x
			}
		}
		bitset.Set(d, ni)

		// Step 6: materialize remaining neighbors.
		for _, nb := range remaining {
			inCPG[nb] = true
		}
		// Step 7: non-ready remaining neighbors must precede n, keeping
		// the graph transitively reduced. n has no in-edge before this
		// pop, so no path nb⇝n exists yet and every edge nb→n is new;
		// the edges it makes transitive are nb's edges into desc(n).
		sawNonReady := false
		for _, nb := range remaining {
			if ready[nb] {
				continue
			}
			sawNonReady = true
			r := c.row(cpgIdx(nb))
			for j, x := range d {
				r[j] &^= x
			}
			bitset.Set(r, ni)
		}
		if !sawNonReady {
			c.addEdge(Top, n)
		}
		// Step 8: removal may make neighbors removable.
		for _, nb := range remaining {
			wigDeg[nb]--
			if wigDeg[nb] < k {
				ready[nb] = true
			}
		}
	}
	return nil
}

// addEdge adds a→b; both must have slots.
func (c *CPG) addEdge(a, b ig.NodeID) {
	bitset.Set(c.row(cpgIdx(a)), cpgIdx(b))
}

// Succs returns the successors of n, sorted.
func (c *CPG) Succs(n ig.NodeID) []ig.NodeID {
	return slotNodes(c.succRow(n))
}

// Preds returns the predecessors of n, sorted.
func (c *CPG) Preds(n ig.NodeID) []ig.NodeID {
	var out []ig.NodeID
	for i := 0; i < c.slots; i++ {
		if c.HasEdge(ig.NodeID(i-2), n) {
			out = append(out, ig.NodeID(i-2))
		}
	}
	return out
}

// HasEdge reports whether the edge a→b is present.
func (c *CPG) HasEdge(a, b ig.NodeID) bool {
	bi := cpgIdx(b)
	r := c.succRow(a)
	return r != nil && bi >= 0 && bi < c.slots && bitset.Has(r, bi)
}

// Nodes returns every real (non-pseudo) node mentioned by the CPG,
// sorted.
func (c *CPG) Nodes() []ig.NodeID {
	if c.slots == 0 {
		return nil
	}
	return slotNodes(c.nodeRow())
}

// slotNodes lists the nodes whose slots are set in row, ascending.
func slotNodes(row []uint64) []ig.NodeID {
	var out []ig.NodeID
	for i := bitset.Next(row, 0); i >= 0; i = bitset.Next(row, i+1) {
		out = append(out, ig.NodeID(i-2))
	}
	return out
}

// Dump renders the CPG deterministically for golden tests, naming
// nodes through the graph's register mapping.
func (c *CPG) Dump(g *ig.Graph) string {
	name := func(n ig.NodeID) string {
		switch n {
		case Top:
			return "top"
		case Bottom:
			return "bottom"
		default:
			return g.RegOf(n).String()
		}
	}
	var lines []string
	emit := func(from ig.NodeID) {
		for _, s := range c.Succs(from) {
			lines = append(lines, fmt.Sprintf("%s -> %s", name(from), name(s)))
		}
	}
	emit(Top)
	for _, n := range c.Nodes() {
		emit(n)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
