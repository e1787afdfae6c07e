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
	// edgesToLive interferes node dn with every bit of src except dn
	// itself and (for copies) the copy source: per word, the new
	// neighbors are src &^ row, OR'd in at once, and only those new
	// bits pay a per-bit mirror into the neighbor's row. Setting dn's
	// own bit and the excluded bit in its row for the duration of the
	// word loop keeps both out of src &^ row.
	edgesToLive := func(dn NodeID, src []uint64, excl NodeID) {
		row := g.adj[dn]
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
			base := NodeID(wi << 6)
			for t := add; t != 0; t &= t - 1 {
				bitset.Set(g.adj[base+NodeID(bits.TrailingZeros64(t))], int(dn))
			}
		}
		bitset.Clear(row, int(dn))
		if dropExcl {
			bitset.Clear(row, int(excl))
		}
	}

	// liveNodes replaces liveRow's contents with the nodes of the
	// registers in regs, a liveness row.
	liveNodes := func(regs []uint64) {
		clear(liveRow)
		for r := bitset.Next(regs, 0); r >= 0; r = bitset.Next(regs, r+1) {
			bitset.Set(liveRow, int(g.NodeOf(ir.Reg(r))))
		}
	}

	// Function entry defines every value live into it (parameters and
	// any web lacking a dominating definition) simultaneously: they
	// all interfere pairwise. Writing row |= live &^ self for every
	// member builds the full symmetric clique.
	liveNodes(live.LiveInRow(0))
	for n := bitset.Next(liveRow, 0); n >= 0; n = bitset.Next(liveRow, n+1) {
		edgesToLive(NodeID(n), liveRow, -1)
	}

	for _, v := range m.VolatileRegs() {
		bitset.Set(volRow, v)
	}

	for _, b := range f.Blocks {
		freq := loops.Freq(b.ID)
		liveNodes(live.LiveOutRow(b.ID))
		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := &b.Instrs[idx]
			// Defs interfere with everything live after the
			// instruction, minus the move-source exception.
			isCopy := in.IsCopy()
			for _, d := range in.Defs {
				excl := NodeID(-1)
				if isCopy {
					excl = g.NodeOf(in.Uses[0])
				}
				edgesToLive(g.NodeOf(d), liveRow, excl)
			}
			// Call clobbers: values live across the call (live after
			// it, not defined by it) interfere with every volatile
			// register.
			if in.Op == ir.Call {
				copy(clobberRow, liveRow)
				if def := in.Def(); def != ir.NoReg {
					bitset.Clear(clobberRow, int(g.NodeOf(def)))
				}
				for v := bitset.Next(volRow, 0); v >= 0; v = bitset.Next(volRow, v+1) {
					edgesToLive(NodeID(v), clobberRow, -1)
				}
			}
			if isCopy {
				x, y := g.NodeOf(in.Defs[0]), g.NodeOf(in.Uses[0])
				if x != y {
					g.AddMove(x, y, freq)
				}
			}
			// Step the live set backwards across the instruction.
			for _, d := range in.Defs {
				bitset.Clear(liveRow, int(g.NodeOf(d)))
			}
			for _, u := range in.Uses {
				bitset.Set(liveRow, int(g.NodeOf(u)))
			}
		}
	}

	// Nothing is removed during construction, so active degree is
	// exactly row population.
	for i := 0; i < g.n; i++ {
		g.degree[i] = bitset.Count(g.adj[i])
	}

	g.Freeze()
	return g, nil
}
