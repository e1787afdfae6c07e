// Package ssa converts functions into and out of static single
// assignment form.
//
// Construction follows Cytron et al.: φ-functions are placed at the
// iterated dominance frontier of each variable's definition sites
// (pruned by liveness so dead φs are not created), then a
// dominator-tree walk renames every definition to a fresh virtual
// register. Destruction splits critical edges and lowers each φ to a
// parallel copy in the predecessor, sequentialized with Leroy's
// parallel-move algorithm. The copies that destruction introduces are
// exactly the copy-related live ranges the paper's coalescing
// machinery targets.
//
// Physical registers are machine state, not variables; they are never
// renamed and never get φs.
package ssa

import (
	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
)

// Build rewrites f into pruned SSA form in place.
func Build(f *ir.Func) {
	dom := cfg.NewDomTree(f)
	df := dom.Frontiers()
	live := liveness.Compute(f)

	// Definition sites per virtual register.
	defsites := map[ir.Reg][]ir.BlockID{}
	for _, b := range f.Blocks {
		if !dom.Reachable(b.ID) {
			continue
		}
		seen := map[ir.Reg]bool{}
		for i := range b.Instrs {
			for _, d := range b.Instrs[i].Defs {
				if d.IsVirt() && !seen[d] {
					seen[d] = true
					defsites[d] = append(defsites[d], b.ID)
				}
			}
		}
	}
	// Parameters are defined at entry.
	entrySeen := map[ir.Reg]bool{}
	for _, p := range f.Params {
		if p.IsVirt() && !entrySeen[p] {
			entrySeen[p] = true
			defsites[p] = append(defsites[p], 0)
		}
	}

	// Place φs at iterated dominance frontiers, pruned by liveness.
	phiFor := map[ir.BlockID]map[ir.Reg]bool{} // block -> var needing φ
	for v, sites := range defsites {
		work := append([]ir.BlockID(nil), sites...)
		inWork := map[ir.BlockID]bool{}
		for _, s := range work {
			inWork[s] = true
		}
		placed := map[ir.BlockID]bool{}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b] {
				if placed[y] || !bitset.Has(live.LiveInRow(y), int(v)) {
					continue
				}
				placed[y] = true
				if phiFor[y] == nil {
					phiFor[y] = map[ir.Reg]bool{}
				}
				phiFor[y][v] = true
				if !inWork[y] {
					inWork[y] = true
					work = append(work, y)
				}
			}
		}
	}

	// Materialize φ instructions (arguments temporarily the original
	// variable; renaming fills real versions).
	for bid, vars := range phiFor {
		b := f.Blocks[bid]
		var phis []ir.Instr
		for _, v := range sortedRegs(vars) {
			args := make([]ir.Reg, len(b.Preds))
			for i := range args {
				args[i] = v
			}
			phis = append(phis, ir.MakePhi(v, args...))
		}
		b.Instrs = append(phis, b.Instrs...)
	}

	// Rename with a dominator-tree walk.
	rn := &renamer{
		f:       f,
		dom:     dom,
		stacks:  map[ir.Reg][]ir.Reg{},
		phiOrig: map[phiKey]ir.Reg{},
	}
	// Record which original variable each φ stands for, keyed by block
	// and instruction index (both stable during renaming).
	for bid := range phiFor {
		b := f.Blocks[bid]
		for i := range b.Instrs {
			if b.Instrs[i].Op != ir.Phi {
				break
			}
			rn.phiOrig[phiKey{bid, i}] = b.Instrs[i].Def()
		}
	}
	// Parameters enter with their own names as version 0.
	for _, p := range f.Params {
		if p.IsVirt() {
			rn.stacks[p] = append(rn.stacks[p], p)
		}
	}
	rn.walk(0)
}

type phiKey struct {
	b   ir.BlockID
	idx int
}

type renamer struct {
	f       *ir.Func
	dom     *cfg.DomTree
	stacks  map[ir.Reg][]ir.Reg
	phiOrig map[phiKey]ir.Reg
}

func (rn *renamer) top(v ir.Reg) ir.Reg {
	s := rn.stacks[v]
	if len(s) == 0 {
		// Use without a dominating definition (possible on paths the
		// generator never executes); keep the original name.
		return v
	}
	return s[len(s)-1]
}

// origOf returns the pre-SSA variable a φ at (b, idx) stands for.
func (rn *renamer) origOf(b ir.BlockID, idx int) (ir.Reg, bool) {
	r, ok := rn.phiOrig[phiKey{b, idx}]
	return r, ok
}

func (rn *renamer) walk(bid ir.BlockID) {
	b := rn.f.Blocks[bid]
	var pushed []ir.Reg // originals pushed in this block, for popping

	define := func(in *ir.Instr, di int, v ir.Reg) {
		if !v.IsVirt() {
			return
		}
		nv := rn.f.NewReg()
		rn.stacks[v] = append(rn.stacks[v], nv)
		pushed = append(pushed, v)
		in.Defs[di] = nv
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.Phi {
			orig, ok := rn.origOf(bid, i)
			if !ok {
				orig = in.Def()
			}
			nv := rn.f.NewReg()
			rn.stacks[orig] = append(rn.stacks[orig], nv)
			pushed = append(pushed, orig)
			in.Defs[0] = nv
			continue
		}
		for ui, u := range in.Uses {
			if u.IsVirt() {
				in.Uses[ui] = rn.top(u)
			}
		}
		for di, d := range in.Defs {
			define(in, di, d)
		}
	}

	// Fill φ arguments in successors for edges leaving this block.
	for _, sid := range b.Succs {
		s := rn.f.Blocks[sid]
		for i := range s.Instrs {
			if s.Instrs[i].Op != ir.Phi {
				break
			}
			orig, ok := rn.origOf(sid, i)
			for pi, p := range s.Preds {
				if p != bid {
					continue
				}
				if ok {
					s.Instrs[i].Uses[pi] = rn.top(orig)
				} else if u := s.Instrs[i].Uses[pi]; u.IsVirt() {
					// A φ that predates this Build call: rename its
					// argument like an ordinary use at the pred exit.
					s.Instrs[i].Uses[pi] = rn.top(u)
				}
			}
		}
	}

	for _, c := range rn.dom.Children(bid) {
		rn.walk(c)
	}

	for i := len(pushed) - 1; i >= 0; i-- {
		v := pushed[i]
		rn.stacks[v] = rn.stacks[v][:len(rn.stacks[v])-1]
	}
}

func sortedRegs(m map[ir.Reg]bool) []ir.Reg {
	out := make([]ir.Reg, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
