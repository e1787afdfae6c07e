package ig

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// Build constructs the interference graph of a renumbered, φ-free
// function on machine m.
//
// Interference is Chaitin's: a definition interferes with everything
// live after it, except that a copy's destination does not interfere
// with its source on account of the copy itself. Every value live
// across a call interferes with every volatile physical register
// (call clobbering). Copy instructions are recorded as Moves weighted
// by loop frequency, the input to every coalescing heuristic.
func Build(f *ir.Func, m *target.Machine, loops *cfg.LoopInfo) (*Graph, error) {
	return BuildInto(nil, f, m, loops, nil)
}

// BuildInto is Build reusing ws's graph storage (nil ws allocates
// fresh) and an optional precomputed liveness for f (nil live computes
// it here). Passing liveness in lets the driver share one analysis per
// round between the cost model and the graph builder.
//
// The builder works a word at a time: the live set is a dense bit row
// in node space, maintained directly during the backward walk, and
// edges land as bulk ORs of that row into adjacency rows (64 candidate
// neighbors per operation) with only the genuinely new bits mirrored
// back. Degrees are recomputed by popcount at the end — during
// construction nothing is ever removed, so a node's degree is exactly
// its row's population count.
func BuildInto(ws *GraphScratch, f *ir.Func, m *target.Machine, loops *cfg.LoopInfo, live *liveness.Info) (*Graph, error) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Phi {
				return nil, fmt.Errorf("ig.Build: b%d:%d: φ-functions must be lowered first", b.ID, i)
			}
			checkPhys := func(r ir.Reg) error {
				if r.IsPhys() && r.PhysNum() >= m.NumRegs {
					return fmt.Errorf("ig.Build: b%d:%d: %v exceeds machine's %d registers", b.ID, i, r, m.NumRegs)
				}
				return nil
			}
			for _, r := range in.Defs {
				if err := checkPhys(r); err != nil {
					return nil, err
				}
			}
			for _, r := range in.Uses {
				if err := checkPhys(r); err != nil {
					return nil, err
				}
			}
		}
	}

	g := NewGraphIn(ws, m.NumRegs, f.NumVirt)
	if live == nil {
		live = liveness.Compute(f)
	}

	var liveRow, volRow, clobberRow []uint64
	if ws != nil {
		ws.liveRow = scratch.Slice(ws.liveRow, g.words)
		ws.volRow = scratch.Slice(ws.volRow, g.words)
		ws.clobberRow = scratch.Slice(ws.clobberRow, g.words)
		liveRow, volRow, clobberRow = ws.liveRow, ws.volRow, ws.clobberRow
	} else {
		liveRow = make([]uint64, g.words)
		volRow = make([]uint64, g.words)
		clobberRow = make([]uint64, g.words)
	}
	// Function entry defines every parameter, live or not, and every
	// value live into it (a web lacking a dominating definition)
	// simultaneously: they all interfere pairwise. Writing row |= live
	// &^ self for every member builds the full symmetric clique.
	g.entryNodes(liveRow, f, live)
	for n := bitset.Next(liveRow, 0); n >= 0; n = bitset.Next(liveRow, n+1) {
		g.edgesTo(NodeID(n), liveRow, -1)
	}

	for _, v := range m.VolatileRegs() {
		bitset.Set(volRow, v)
	}

	for _, b := range f.Blocks {
		g.moveStart = append(g.moveStart, len(g.moves))
		freq := loops.Freq(b.ID)
		g.liveNodes(liveRow, live.LiveOutRow(b.ID))
		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := &b.Instrs[idx]
			// Defs interfere with everything live after the
			// instruction, minus the move-source exception.
			isCopy := in.IsCopy()
			for _, d := range in.Defs {
				excl := NodeID(-1)
				if isCopy {
					excl = g.node(in.Uses[0])
				}
				g.edgesTo(g.node(d), liveRow, excl)
			}
			// Call clobbers: values live across the call (live after
			// it, not defined by it) interfere with every volatile
			// register.
			if in.Op == ir.Call {
				copy(clobberRow, liveRow)
				if def := in.Def(); def != ir.NoReg {
					bitset.Clear(clobberRow, int(g.node(def)))
				}
				for v := bitset.Next(volRow, 0); v >= 0; v = bitset.Next(volRow, v+1) {
					g.edgesTo(NodeID(v), clobberRow, -1)
				}
			}
			if isCopy {
				x, y := g.node(in.Defs[0]), g.node(in.Uses[0])
				if x != y {
					g.AddMove(x, y, freq)
				}
			}
			// Step the live set backwards across the instruction.
			for _, d := range in.Defs {
				bitset.Clear(liveRow, int(g.node(d)))
			}
			for _, u := range in.Uses {
				bitset.Set(liveRow, int(g.node(u)))
			}
		}
	}

	g.moveStart = append(g.moveStart, len(g.moves))
	g.finish()
	return g, nil
}

// edgesTo interferes node dn with every bit of src except dn itself
// and (for copies) the copy source excl: per word, the new neighbors
// are src &^ row, OR'd in at once, and only those new bits pay a
// per-bit mirror into the neighbor's row. Setting dn's own bit and
// the excluded bit in its row for the duration of the word loop keeps
// both out of src &^ row. Only for construction: rows are written
// directly, not copy-on-write.
func (g *Graph) edgesTo(dn NodeID, src []uint64, excl NodeID) {
	adj := g.adj
	row := adj[dn]
	col, bit := dn>>6, uint64(1)<<(dn&63)
	bitset.Set(row, int(dn))
	dropExcl := excl >= 0 && !bitset.Has(row, int(excl))
	if dropExcl {
		bitset.Set(row, int(excl))
	}
	for wi, w := range src {
		add := w &^ row[wi]
		if add == 0 {
			continue
		}
		row[wi] |= add
		for t := add; t != 0; t &= t - 1 {
			adj[wi<<6|bits.TrailingZeros64(t)][col] |= bit
		}
	}
	bitset.Clear(row, int(dn))
	if dropExcl {
		bitset.Clear(row, int(excl))
	}
}

// liveNodes replaces dst's contents with the nodes of the registers in
// regs, a liveness row. Physical register n is bit n+1 of the row and
// node n; virtual register v is bit FirstVirtual+v and node nPhys+v, so
// the virtual words move as a whole, shifted left by nPhys bits.
func (g *Graph) liveNodes(dst, regs []uint64) {
	clear(dst)
	const virtWord = int(ir.FirstVirtual) / 64
	for r := bitset.Next(regs[:virtWord], 1); r >= 0; r = bitset.Next(regs[:virtWord], r+1) {
		bitset.Set(dst, r-1)
	}
	base, sh := g.nPhys>>6, uint(g.nPhys&63)
	for i, w := range regs[virtWord:] {
		if w == 0 {
			continue
		}
		dst[base+i] |= w << sh
		if sh != 0 && w>>(64-sh) != 0 {
			dst[base+i+1] |= w >> (64 - sh)
		}
	}
}

// entryNodes fills dst with the nodes function entry defines: the
// parameters and the values live into the entry block.
func (g *Graph) entryNodes(dst []uint64, f *ir.Func, live *liveness.Info) {
	g.liveNodes(dst, live.LiveInRow(0))
	for _, p := range f.Params {
		bitset.Set(dst, int(g.node(p)))
	}
}

// node is NodeOf for the builders' inner loops, whose registers are
// known to be valid.
func (g *Graph) node(r ir.Reg) NodeID {
	if r < ir.FirstVirtual {
		return NodeID(r - 1)
	}
	return NodeID(g.nPhys + int(r-ir.FirstVirtual))
}

// finish ends construction: nothing is removed while a graph is built,
// so each node's active degree is exactly its row's population, and
// the result is frozen as the original graph.
func (g *Graph) finish() {
	for i := 0; i < g.n; i++ {
		g.degree[i] = bitset.Count(g.adj[i])
	}
	g.Freeze()
}
