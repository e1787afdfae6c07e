// Package liveness computes live-variable information over ir.Func by
// backward dataflow iteration.
//
// Live sets are bitset rows over the dense register encoding: bit
// int(r) stands for register r, so the physical registers occupy the
// bits below ir.FirstVirtual and virtual register v is bit
// int(ir.FirstVirtual)+v. NoReg (bit 0) is never a member.
//
// φ-functions get the standard SSA treatment: a φ's uses are live out
// of the corresponding predecessor block (not live into the φ's own
// block), and its definition happens at the block head.
package liveness

import (
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// Info holds per-block live-in and live-out rows. An Info is not safe
// for concurrent use: ForEachInstrReverse reuses an internal row
// between calls.
type Info struct {
	f     *ir.Func
	words int      // row width
	in    []uint64 // one row per block, flat
	out   []uint64
	iter  []uint64 // one row, reused by ForEachInstrReverse
}

// Scratch holds the buffers Compute needs, so repeated analyses (one
// per spill round, per function) reuse them instead of reallocating.
// The zero value is ready to use. A Scratch owns the *Info it returns:
// the Info is valid only until the next ComputeInto on the same
// Scratch, and a Scratch must not be shared between goroutines.
type Scratch struct {
	info Info
	gen  []uint64 // one row per block, like Info.in
	kill []uint64
	phi  []uint64
	tmp  []uint64 // one row: the out set being merged
}

// Compute runs the backward dataflow to a fixed point and returns the
// per-block liveness information. Both virtual and physical registers
// are tracked; implicit call clobbers are not (they are interference
// facts, handled by the interference-graph builder).
func Compute(f *ir.Func) *Info { return ComputeInto(f, nil) }

// ComputeInto is Compute reusing ws's buffers. A nil ws behaves like
// Compute. The liveness equations have a unique least fixed point, so
// the result is identical no matter how the scratch rows are reused.
func ComputeInto(f *ir.Func, ws *Scratch) *Info {
	if ws == nil {
		ws = &Scratch{}
	}
	n := len(f.Blocks)
	info := &ws.info
	words := bitset.Words(int(ir.FirstVirtual) + f.NumVirt)
	info.f, info.words = f, words
	ws.gen = scratch.Slice(ws.gen, n*words)
	ws.kill = scratch.Slice(ws.kill, n*words)
	ws.phi = scratch.Slice(ws.phi, n*words)
	info.in = scratch.Slice(info.in, n*words)
	info.out = scratch.Slice(info.out, n*words)
	info.iter = scratch.Slice(info.iter, words)
	ws.tmp = scratch.Slice(ws.tmp, words)

	// Precompute per-block gen (upward-exposed uses, φ excluded),
	// kill (all defs including φ), and the φ definitions at the block
	// head (consulted once per edge per iteration below). Only uses
	// can make a register live, so they alone test for NoReg; bit 0 in
	// a kill or φ row removes nothing.
	for _, b := range f.Blocks {
		g := info.row(ws.gen, b.ID)
		k := info.row(ws.kill, b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Phi {
				for _, d := range in.Defs {
					bitset.Set(k, int(d))
				}
				continue
			}
			for _, u := range in.Uses {
				if u != ir.NoReg && !bitset.Has(k, int(u)) {
					bitset.Set(g, int(u))
				}
			}
			for _, d := range in.Defs {
				bitset.Set(k, int(d))
			}
		}
		pd := info.row(ws.phi, b.ID)
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.Phi {
				break
			}
			bitset.Set(pd, int(b.Instrs[i].Def()))
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
				sIn := info.row(info.in, sid)
				pd := info.row(ws.phi, sid)
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
						if a := s.Instrs[j].Uses[pi]; a != ir.NoReg {
							bitset.Set(out, int(a))
						}
					}
				}
			}
			// in = gen | (out &^ kill), written straight into the
			// block's row with change detection fused in.
			g := info.row(ws.gen, b.ID)
			k := info.row(ws.kill, b.ID)
			bin := info.row(info.in, b.ID)
			bout := info.row(info.out, b.ID)
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
	return info
}

// Patch re-keys ws's current Info, the liveness of a φ-free function
// before a spill round, to f after the round's spill code went in and
// the webs were renumbered: newOf[v] is the web old virtual register v
// became, or -1 when v was spilled, and entryIn lists the new webs
// live into the entry block. Spill code adds no block and no edge,
// touches no physical register and no surviving web, and leaves no
// other new web live into or out of any block (DESIGN.md §20), so each
// live-in row is the old one remapped plus, for the entry block,
// entryIn, and each live-out row is the union of its successors'
// live-in rows. The result equals ComputeInto's on f and, like it, is
// owned by ws.
func Patch(f *ir.Func, ws *Scratch, newOf []int32, entryIn []int32) *Info {
	info := &ws.info
	n := len(f.Blocks)
	words := bitset.Words(int(ir.FirstVirtual) + f.NumVirt)
	// The gen and kill tables are idle between solves; the new rows
	// are written there and swapped in.
	ws.gen = scratch.Slice(ws.gen, n*words)
	ws.kill = scratch.Slice(ws.kill, n*words)
	in, out := ws.gen, ws.kill
	const virtWord = int(ir.FirstVirtual) / 64
	for b := 0; b < n; b++ {
		dst, src := in[b*words:(b+1)*words], info.row(info.in, ir.BlockID(b))
		copy(dst[:virtWord], src[:virtWord])
		for wi := virtWord; wi < len(src); wi++ {
			for w := src[wi]; w != 0; w &= w - 1 {
				if nv := newOf[(wi-virtWord)<<6+bits.TrailingZeros64(w)]; nv >= 0 {
					bitset.Set(dst, int(ir.FirstVirtual)+int(nv))
				}
			}
		}
	}
	for _, w := range entryIn {
		bitset.Set(in[:words], int(ir.FirstVirtual)+int(w))
	}
	for _, b := range f.Blocks {
		dst := out[int(b.ID)*words : (int(b.ID)+1)*words]
		for _, s := range b.Succs {
			for wi, w := range in[int(s)*words : (int(s)+1)*words] {
				dst[wi] |= w
			}
		}
	}
	info.in, ws.gen = in, info.in
	info.out, ws.kill = out, info.out
	info.f, info.words = f, words
	info.iter = scratch.Slice(info.iter, words)
	return info
}

// row slices block b's row out of one of the flat per-block tables.
func (i *Info) row(table []uint64, b ir.BlockID) []uint64 {
	return table[int(b)*i.words : (int(b)+1)*i.words]
}

// LiveInRow returns the row of registers live at entry to b. φ
// definitions are not live-in (they are defined at the block head);
// φ uses are live-out of the corresponding predecessors. The row is
// the Info's own storage and must not be modified.
func (i *Info) LiveInRow(b ir.BlockID) []uint64 { return i.row(i.in, b) }

// LiveOutRow is LiveInRow for the registers live at exit from b.
func (i *Info) LiveOutRow(b ir.BlockID) []uint64 { return i.row(i.out, b) }

// ForEachInstrReverse walks block b backwards, maintaining the row of
// registers live *after* each instruction and calling fn(i, instr,
// liveAfter) from the last instruction to the first. φ-functions are
// visited too (their live-after is the set after all φs executed in
// parallel). The callback must not modify or retain liveAfter, which
// is one row reused between calls — including across calls to
// ForEachInstrReverse itself — and must not re-enter
// ForEachInstrReverse on the same Info.
func (i *Info) ForEachInstrReverse(b *ir.Block, fn func(idx int, in *ir.Instr, liveAfter []uint64)) {
	live := i.iter
	copy(live, i.LiveOutRow(b.ID))
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		in := &b.Instrs[idx]
		fn(idx, in, live)
		for _, d := range in.Defs {
			bitset.Clear(live, int(d))
		}
		if in.Op != ir.Phi {
			for _, u := range in.Uses {
				if u != ir.NoReg {
					bitset.Set(live, int(u))
				}
			}
		}
	}
}

// LiveAcrossCalls returns, for every virtual register v, the number of
// call instructions v is live across, weighted by block frequency
// (freq[b] per call in block b), at index v. A register is live across
// a call when it is live immediately after the call and is not
// defined by it. The result reuses dst's backing array when it is
// large enough; dst may be nil.
func (i *Info) LiveAcrossCalls(dst []float64, freq func(ir.BlockID) float64) []float64 {
	across := scratch.Slice(dst, i.f.NumVirt)
	for _, b := range i.f.Blocks {
		w := freq(b.ID)
		i.ForEachInstrReverse(b, func(_ int, in *ir.Instr, liveAfter []uint64) {
			if in.Op != ir.Call {
				return
			}
			def := int(in.Def())
			for r := bitset.Next(liveAfter, int(ir.FirstVirtual)); r >= 0; r = bitset.Next(liveAfter, r+1) {
				if r != def {
					across[r-int(ir.FirstVirtual)] += w
				}
			}
		})
	}
	return across
}
