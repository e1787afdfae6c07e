// Package liveness computes live-variable information over ir.Func by
// backward dataflow iteration.
//
// φ-functions get the standard SSA treatment: a φ's uses are live out
// of the corresponding predecessor block (not live into the φ's own
// block), and its definition happens at the block head.
package liveness

import (
	"math/bits"

	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// Info holds per-block live-in/live-out sets. An Info is not safe for
// concurrent use: ForEachInstrReverse reuses an internal set between
// calls.
type Info struct {
	f       *ir.Func
	liveIn  []ir.RegSet
	liveOut []ir.RegSet
	iter    ir.RegSet // reused by ForEachInstrReverse
}

// Scratch holds the buffers Compute needs, so repeated analyses (one
// per spill round, per function) reuse them instead of reallocating.
// The zero value is ready to use. A Scratch owns the *Info it returns:
// the Info is valid only until the next ComputeInto on the same
// Scratch, and a Scratch must not be shared between goroutines.
//
// The dataflow itself runs on flat per-block bitsets over the dense
// Reg encoding (physical registers below FirstVirtual, virtuals
// above), so the iteration is word operations; the RegSet maps the
// Info API exposes are materialized once, after the fixpoint.
type Scratch struct {
	info     Info
	genBits  []uint64 // nb rows of `words` words each
	killBits []uint64
	phiBits  []uint64
	inBits   []uint64
	outBits  []uint64
	tmp      []uint64 // one row: the out set being merged
	words    int      // row width of the tables above, set by Solve
}

// Compute runs the backward dataflow to a fixed point and returns the
// per-block liveness information. Both virtual and physical registers
// are tracked; implicit call clobbers are not (they are interference
// facts, handled by the interference-graph builder).
func Compute(f *ir.Func) *Info { return ComputeInto(f, nil) }

// ComputeInto is Compute reusing ws's buffers. A nil ws behaves like
// Compute. The liveness equations have a unique least fixed point, so
// the result is identical no matter how the scratch sets are reused.
func ComputeInto(f *ir.Func, ws *Scratch) *Info {
	if ws == nil {
		ws = &Scratch{}
	}
	ws.Solve(f)
	n := len(f.Blocks)
	info := &ws.info
	info.f = f
	info.liveIn = growSets(info.liveIn, n)
	info.liveOut = growSets(info.liveOut, n)

	// Materialize the RegSet views the Info API exposes, once.
	for _, b := range f.Blocks {
		fillSet(info.liveIn[b.ID], ws.LiveInRow(b.ID))
		fillSet(info.liveOut[b.ID], ws.LiveOutRow(b.ID))
	}
	return info
}

// Solve runs ComputeInto's bitset fixpoint and stops there, before the
// RegSet maps are built, for callers that only need the rows.
func (ws *Scratch) Solve(f *ir.Func) {
	n := len(f.Blocks)
	// One bit per encodable register: NoReg and the physical range
	// below FirstVirtual, then f's virtuals.
	words := (int(ir.FirstVirtual) + f.NumVirt + 63) / 64
	ws.words = words
	ws.genBits = scratch.Slice(ws.genBits, n*words)
	ws.killBits = scratch.Slice(ws.killBits, n*words)
	ws.phiBits = scratch.Slice(ws.phiBits, n*words)
	ws.inBits = scratch.Slice(ws.inBits, n*words)
	ws.outBits = scratch.Slice(ws.outBits, n*words)
	ws.tmp = scratch.Slice(ws.tmp, words)

	// Precompute per-block gen (upward-exposed uses, φ excluded),
	// kill (all defs including φ), and the φ definitions at the block
	// head (consulted once per edge per iteration below). NoReg never
	// enters a set, matching RegSet.Add.
	for _, b := range f.Blocks {
		g := ws.row(ws.genBits, b.ID)
		k := ws.row(ws.killBits, b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Phi {
				for _, d := range in.Defs {
					setBit(k, d)
				}
				continue
			}
			for _, u := range in.Uses {
				if !hasBit(k, u) {
					setBit(g, u)
				}
			}
			for _, d := range in.Defs {
				setBit(k, d)
			}
		}
		pd := ws.row(ws.phiBits, b.ID)
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.Phi {
				break
			}
			setBit(pd, b.Instrs[i].Def())
		}
	}

	out := ws.tmp
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			clear(out)
			for _, sid := range b.Succs {
				s := f.Blocks[sid]
				// live-in of successor minus its φ defs...
				sIn := ws.row(ws.inBits, sid)
				pd := ws.row(ws.phiBits, sid)
				for w := range out {
					out[w] |= sIn[w] &^ pd[w]
				}
				// ...plus the φ arguments flowing along this edge.
				// A block can appear several times in Preds (e.g. a
				// branch with both targets equal); every matching
				// position contributes.
				for pi, p := range s.Preds {
					if p != b.ID {
						continue
					}
					for j := range s.Instrs {
						if s.Instrs[j].Op != ir.Phi {
							break
						}
						setBit(out, s.Instrs[j].Uses[pi])
					}
				}
			}
			// in = gen | (out &^ kill), written straight into the
			// block's row with change detection fused in.
			g := ws.row(ws.genBits, b.ID)
			k := ws.row(ws.killBits, b.ID)
			bin := ws.row(ws.inBits, b.ID)
			bout := ws.row(ws.outBits, b.ID)
			for w := range out {
				if bout[w] != out[w] {
					bout[w] = out[w]
					changed = true
				}
				if v := g[w] | out[w]&^k[w]; bin[w] != v {
					bin[w] = v
					changed = true
				}
			}
		}
	}
}

// LiveInRow returns block b's live-in row from the last Solve or
// ComputeInto on ws: bit int(r) is set exactly when r is live into b.
// The row is ws's own storage, valid until the next solve.
func (ws *Scratch) LiveInRow(b ir.BlockID) []uint64 { return ws.row(ws.inBits, b) }

// LiveOutRow is LiveInRow for the registers live out of b.
func (ws *Scratch) LiveOutRow(b ir.BlockID) []uint64 { return ws.row(ws.outBits, b) }

// row slices block b's row out of one of the flat per-block tables.
func (ws *Scratch) row(table []uint64, b ir.BlockID) []uint64 {
	return table[int(b)*ws.words : (int(b)+1)*ws.words]
}

// setBit marks r in the row; NoReg is ignored, like RegSet.Add.
func setBit(row []uint64, r ir.Reg) {
	if r != ir.NoReg {
		row[int(r)>>6] |= 1 << (uint(r) & 63)
	}
}

// hasBit reports r's membership in the row (NoReg is never a member).
func hasBit(row []uint64, r ir.Reg) bool {
	return row[int(r)>>6]&(1<<(uint(r)&63)) != 0
}

// fillSet replaces dst's contents with the row's members.
func fillSet(dst ir.RegSet, row []uint64) {
	clear(dst)
	for wi, w := range row {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst[ir.Reg(base+bits.TrailingZeros64(w))] = struct{}{}
		}
	}
}

// growSets resizes sets to n entries, reusing (and clearing) existing
// maps and allocating only the missing ones.
func growSets(sets []ir.RegSet, n int) []ir.RegSet {
	if cap(sets) < n {
		grown := make([]ir.RegSet, n)
		copy(grown, sets)
		sets = grown
	}
	sets = sets[:n]
	for i := range sets {
		if sets[i] == nil {
			sets[i] = ir.NewRegSet()
		} else {
			clear(sets[i])
		}
	}
	return sets
}

func copySet(dst, src ir.RegSet) {
	clear(dst)
	for r := range src {
		dst[r] = struct{}{}
	}
}

// LiveIn returns registers live at entry to b. φ definitions are not
// live-in (they are defined at the block head); φ uses are live-out of
// the corresponding predecessors.
func (i *Info) LiveIn(b ir.BlockID) ir.RegSet { return i.liveIn[b] }

// LiveOut returns registers live at exit from b.
func (i *Info) LiveOut(b ir.BlockID) ir.RegSet { return i.liveOut[b] }

// ForEachInstrReverse walks block b backwards, maintaining the live
// set *after* each instruction and calling fn(i, instr, liveAfter)
// from the last instruction to the first. φ-functions are visited too
// (their live-after is the set after all φs executed in parallel).
// The callback must not retain live, which is reused between calls —
// including across calls to ForEachInstrReverse itself — and must not
// re-enter ForEachInstrReverse on the same Info.
func (i *Info) ForEachInstrReverse(b *ir.Block, fn func(idx int, in *ir.Instr, liveAfter ir.RegSet)) {
	live := i.iter
	if live == nil {
		live = ir.NewRegSet()
		i.iter = live
	}
	copySet(live, i.liveOut[b.ID])
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		in := &b.Instrs[idx]
		fn(idx, in, live)
		for _, d := range in.Defs {
			live.Remove(d)
		}
		if in.Op != ir.Phi {
			for _, u := range in.Uses {
				live.Add(u)
			}
		}
	}
}

// LiveAcrossCalls returns, for every register, the number of call
// instructions it is live across, weighted by block frequency
// (freq[b] per call in block b). A register is live across a call when
// it is live immediately after the call and is not defined by it.
func (i *Info) LiveAcrossCalls(freq func(ir.BlockID) float64) map[ir.Reg]float64 {
	out := map[ir.Reg]float64{}
	for _, b := range i.f.Blocks {
		w := freq(b.ID)
		i.ForEachInstrReverse(b, func(_ int, in *ir.Instr, liveAfter ir.RegSet) {
			if in.Op != ir.Call {
				return
			}
			for r := range liveAfter {
				if in.Def() == r {
					continue
				}
				out[r] += w
			}
		})
	}
	return out
}
