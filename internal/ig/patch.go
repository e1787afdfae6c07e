package ig

import (
	"fmt"
	"math/bits"
	"slices"

	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// SpillPatch records how PatchRenumber carried one spill round's webs
// into the next numbering. PatchGraph, liveness.Patch and
// costmodel.Patch read it to derive the next round's analyses from the
// previous round's. The zero value is ready; its slices are reused
// from call to call.
type SpillPatch struct {
	// NewOf[v] is the web old web v became, or -1 when v was spilled.
	// The map is monotone: surviving webs keep their order.
	NewOf []int32

	// OldOf[w] is the old web new web w continues, or -1 when w is new:
	// a fragment of a spilled web or a spill temporary.
	OldOf []int32

	// Dirty[b] reports that block b holds an operand of a new web. A
	// clean block's instructions name only surviving webs and physical
	// registers.
	Dirty []bool

	// Occurrences lists the operands of the new webs in walk order, a
	// web read twice by one instruction once.
	Occurrences []Occurrence

	// EntryLive lists the new webs live into the entry block: the
	// parameter and undefined-entry-value fragments of spilled webs
	// that the entry block reads before defining. No other new web is
	// live into or out of any block.
	EntryLive []int32

	cur, stamp []int32 // PatchRenumber's per-register tables
}

// Occurrence is one operand of a new web: the web, the block and
// opcode of its instruction, whether it is the definition, and how many
// calls of the block come before it — for a definition, up to and
// including its own instruction.
type Occurrence struct {
	Web   int32
	Block ir.BlockID
	Op    ir.Op
	Def   bool
	Calls int32
}

// PatchRenumber renumbers f after a spill round without rebuilding the
// webs. f was renumbered into webs 0..oldWebs-1 (by RenumberInto or an
// earlier PatchRenumber) before the round's spill code went in;
// spilled[v] marks the webs that got spill code, and every virtual
// register numbered oldWebs or above was made by the spiller. f's
// entry block must have no predecessors.
//
// The rewritten function and the returned info equal RenumberInto's on
// the same function (DESIGN.md §20): a web that was not spilled is
// still one web whose first occurrence has not moved, so the walk
// order numbers it as before, and every register the spiller touched
// is block-local, so each of its definitions starts a web that ends in
// its block. p records the mapping for the analysis patches. The info
// is owned by ws as RenumberInto's is.
//
// An error means the spill code broke block locality: a new or spilled
// register is read in a block other than the entry before that block
// defines it. f is then partly rewritten.
func PatchRenumber(f *ir.Func, ws *RenumberScratch, p *SpillPatch, oldWebs int, spilled []bool) (*RenumberInfo, error) {
	nv := f.NumVirt
	// For a surviving web r, stamp[r] is -1 and cur[r] its new web, -1
	// until its first occurrence numbers it. For a spill register, cur[r]
	// is its web current in the block walked while stamp[r] is 1 + that
	// block's ID.
	cur := scratch.Slice(p.cur, nv)
	stamp := scratch.Slice(p.stamp, nv)
	for r := 0; r < oldWebs; r++ {
		if !spilled[r] {
			cur[r], stamp[r] = -1, -1
		}
	}
	p.cur, p.stamp = cur, stamp
	p.Dirty = scratch.Slice(p.Dirty, len(f.Blocks))
	oldOf := p.OldOf[:0]
	entry := p.EntryLive[:0]
	origins := ws.origins[:0]
	// fresh numbers a new web, first met at register orig of old web
	// old (-1 for a spill register).
	fresh := func(orig ir.Reg, old int32) int32 {
		origins = append(origins, orig)
		oldOf = append(oldOf, old)
		return int32(len(origins) - 1)
	}

	for i, pr := range f.Params {
		if !pr.IsVirt() {
			continue
		}
		switch r := pr.VirtNum(); {
		case stamp[r] < 0 && cur[r] < 0:
			cur[r] = fresh(pr, int32(r))
		case stamp[r] == 0:
			// A spilled parameter's incoming value is a web of its
			// own, current at the entry block's head.
			cur[r], stamp[r] = fresh(pr, -1), 1
		}
		f.Params[i] = ir.Virt(int(cur[pr.VirtNum()]))
	}
	// Webs numbered from here on are not parameter fragments.
	afterParams := int32(len(origins))
	occ := p.Occurrences[:0]
	for _, b := range f.Blocks {
		at := int32(b.ID) + 1
		dirty := false
		calls := int32(0)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for ui, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				r := u.VirtNum()
				switch st := stamp[r]; {
				case st < 0:
					if cur[r] < 0 {
						cur[r] = fresh(u, int32(r))
					}
					in.Uses[ui] = ir.Virt(int(cur[r]))
					continue
				case st != at:
					if b.ID != 0 {
						return nil, fmt.Errorf("ig.PatchRenumber: b%d: spill register %v read before the block defines it", b.ID, u)
					}
					// No definition reaches this read: the web of r's
					// undefined entry value, live into the entry block.
					cur[r], stamp[r] = fresh(u, -1), at
					entry = append(entry, cur[r])
				default:
					// A parameter fragment read in the entry block is
					// live into it.
					if w := cur[r]; b.ID == 0 && w < afterParams && !slices.Contains(entry, w) {
						entry = append(entry, w)
					}
				}
				dirty = true
				w := ir.Virt(int(cur[r]))
				if !slices.Contains(in.Uses[:ui], w) {
					occ = append(occ, Occurrence{Web: cur[r], Block: b.ID, Op: in.Op, Calls: calls})
				}
				in.Uses[ui] = w
			}
			if in.Op == ir.Call {
				calls++
			}
			if d := in.Def(); d.IsVirt() {
				r := d.VirtNum()
				if stamp[r] >= 0 {
					// Every definition of a spill register starts a web.
					cur[r], stamp[r] = fresh(d, -1), at
					occ = append(occ, Occurrence{Web: cur[r], Block: b.ID, Op: in.Op, Def: true, Calls: calls})
					dirty = true
				} else if cur[r] < 0 {
					cur[r] = fresh(d, int32(r))
				}
				in.Defs[0] = ir.Virt(int(cur[r]))
			}
		}
		p.Dirty[b.ID] = dirty
	}
	p.Occurrences = occ
	newOf := scratch.Fill(p.NewOf, oldWebs, int32(-1))
	for w, o := range oldOf {
		if o >= 0 {
			newOf[o] = int32(w)
		}
	}
	p.NewOf, p.OldOf, p.EntryLive = newOf, oldOf, entry

	ws.origins = origins
	info := &ws.info
	info.NumWebs = len(origins)
	// Rows already cut from this origins array are reused.
	keep := 0
	if len(info.Origins) > 0 && len(origins) > 0 && &info.Origins[0][0] == &origins[0] {
		keep = min(len(info.Origins), len(origins))
	}
	info.Origins = info.Origins[:keep]
	for w := keep; w < len(origins); w++ {
		info.Origins = append(info.Origins, origins[w:w+1:w+1])
	}
	f.NumVirt = info.NumWebs
	return info, nil
}

// PatchGraph rebuilds, in ws, the interference graph of f after
// PatchRenumber carried it to a new numbering as p records. The old
// graph is ws's: the one its last BuildInto or PatchGraph returned,
// which this call replaces; live is f's patched liveness. The result
// equals BuildInto's on f (DESIGN.md §20):
//
//   - Edges and moves among surviving webs and physical registers are
//     the old graph's frozen rows and moves remapped through p.NewOf,
//     spilled webs' bits dropped: their definitions, their live ranges
//     and the calls they cross did not change.
//   - Every edge of a new web comes from an instruction of its own
//     block, so Build's per-instruction kernel re-runs over the dirty
//     blocks only, adding a survivor's edges to the new webs live at
//     its definition and a new web's edges to everything live at its
//     own, and rebuilding those blocks' moves in Build's order.
//   - New webs live into the entry block join its entry clique of
//     parameters and live-in values.
func PatchGraph(ws *GraphScratch, p *SpillPatch, f *ir.Func, m *target.Machine, loops *cfg.LoopInfo, live *liveness.Info) *Graph {
	// The old graph's frozen rows are windows on the backing and its
	// moves are in g.moves: both move to the spare buffers while the
	// new graph is built over the other pair.
	g := &ws.g
	oldN, oldWords := g.n, g.words
	oldRows, oldMoves, oldStart := ws.backing, g.moves, g.moveStart
	ws.backing, g.moves, g.moveStart = ws.spareBacking, ws.spareMoves, ws.spareStart
	ws.spareBacking, ws.spareMoves, ws.spareStart = oldRows, oldMoves, oldStart
	g = NewGraphIn(ws, m.NumRegs, f.NumVirt)
	nPhys := g.nPhys

	// nodeMap[u] is old node u's new node, or -1 for a spilled web, and
	// keep has the bits of the surviving webs: the physical clique is
	// NewGraphIn's.
	ws.nodeMap = scratch.Slice(ws.nodeMap, oldN)
	ws.keep = scratch.Slice(ws.keep, oldWords)
	nodeMap, keep := ws.nodeMap, ws.keep
	for u := range nodeMap {
		nodeMap[u] = int32(u)
		if u >= nPhys {
			nodeMap[u] = -1
			if w := p.NewOf[u-nPhys]; w >= 0 {
				nodeMap[u] = int32(nPhys) + w
			}
		}
		if int(nodeMap[u]) >= nPhys {
			bitset.Set(keep, u)
		}
	}
	adj := g.adj
	for u, nu := range nodeMap {
		if nu < 0 {
			continue
		}
		// Rows are symmetric: walk the neighbors above u and set both
		// bits of each edge.
		row, orow := adj[nu], oldRows[u*oldWords:(u+1)*oldWords]
		col, bit := nu>>6, uint64(1)<<(nu&63)
		for wi := u >> 6; wi < len(orow); wi++ {
			w := orow[wi] & keep[wi]
			if wi == u>>6 {
				w &= ^uint64(0) << (u & 63)
			}
			for ; w != 0; w &= w - 1 {
				v := nodeMap[wi<<6+bits.TrailingZeros64(w)]
				row[v>>6] |= 1 << (v & 63)
				adj[v][col] |= bit
			}
		}
	}

	ws.liveRow = scratch.Slice(ws.liveRow, g.words)
	ws.newRow = scratch.Slice(ws.newRow, g.words)
	ws.clobberRow = scratch.Slice(ws.clobberRow, g.words)
	liveRow, newRow, clobberRow := ws.liveRow, ws.newRow, ws.clobberRow
	isNew := func(n NodeID) bool { return int(n) >= nPhys && p.OldOf[int(n)-nPhys] < 0 }

	if len(p.EntryLive) > 0 {
		g.entryNodes(liveRow, f, live)
		for _, w := range p.EntryLive {
			g.edgesTo(NodeID(nPhys+int(w)), liveRow, -1)
		}
	}

	ws.volRow = scratch.Slice(ws.volRow, g.words)
	volRow := ws.volRow
	for _, v := range m.VolatileRegs() {
		bitset.Set(volRow, v)
	}
	for _, b := range f.Blocks {
		g.moveStart = append(g.moveStart, len(g.moves))
		if !p.Dirty[b.ID] {
			for _, mv := range oldMoves[oldStart[b.ID]:oldStart[b.ID+1]] {
				g.AddMove(NodeID(nodeMap[mv.X]), NodeID(nodeMap[mv.Y]), mv.Weight)
			}
			continue
		}
		freq := loops.Freq(b.ID)
		g.liveNodes(liveRow, live.LiveOutRow(b.ID))
		// newRow holds the live new webs, liveNew of them: none is live
		// out of a block.
		clear(newRow)
		liveNew := 0
		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := &b.Instrs[idx]
			isCopy := in.IsCopy()
			for _, d := range in.Defs {
				excl := NodeID(-1)
				if isCopy {
					excl = g.node(in.Uses[0])
				}
				if dn := g.node(d); isNew(dn) {
					g.edgesTo(dn, liveRow, excl)
				} else if liveNew > 0 {
					g.edgesTo(dn, newRow, excl)
				}
			}
			if in.Op == ir.Call && liveNew > 0 {
				copy(clobberRow, newRow)
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
			for _, d := range in.Defs {
				n := int(g.node(d))
				bitset.Clear(liveRow, n)
				if bitset.Has(newRow, n) {
					bitset.Clear(newRow, n)
					liveNew--
				}
			}
			for _, u := range in.Uses {
				n := g.node(u)
				bitset.Set(liveRow, int(n))
				if isNew(n) && !bitset.Has(newRow, int(n)) {
					bitset.Set(newRow, int(n))
					liveNew++
				}
			}
		}
	}
	g.moveStart = append(g.moveStart, len(g.moves))
	g.finish()
	return g
}
