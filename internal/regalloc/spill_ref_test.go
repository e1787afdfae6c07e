package regalloc

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
)

// This file keeps the map-based spill inserter that the dense,
// count-then-fill insertSpillCode replaced, as the reference
// TestSpillInsertionMatchesReference compares against on every spill
// round: same function text, same temporary set.

// RefInsertSpillCode and ExpandSpills export the reference and the
// driver's spill-set expansion to the external test package, which can
// import the allocators that produce spill rounds.
var RefInsertSpillCode = refInsertSpillCode

func ExpandSpills(g *ig.Graph, spilled []ig.NodeID) []int {
	return expandSpills(&Workspace{}, g, spilled)
}

// readBeforeWritten reports whether some path from entry reaches a
// use of r before any definition of it. Parameters are defined at
// entry by the caller and are never reported. It walks the CFG once
// per web.
func readBeforeWritten(f *ir.Func, r ir.Reg) bool {
	for _, p := range f.Params {
		if p == r {
			return false
		}
	}
	// DFS over paths on which r is still undefined: a block defining r
	// kills the path; a use of r before a def inside a live block is a
	// read of the undefined entry value.
	seen := make([]bool, len(f.Blocks))
	stack := []ir.BlockID{0}
	seen[0] = true
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		defined := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, u := range in.Uses {
				if u == r {
					return true
				}
			}
			if in.Def() == r {
				defined = true
				break
			}
		}
		if defined {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// refInsertSpillCode splits each spilled web: a store follows every
// definition (and function entry, for parameters and webs whose entry
// value is read before any definition), and every use reads a fresh
// temporary loaded just before it. It returns the spilled webs (in map
// order) plus the fresh temporaries. Every block is rebuilt.
func refInsertSpillCode(f *ir.Func, webs []int) []ir.Reg {
	slot := map[ir.Reg]int64{}
	var entryStores []ir.Reg
	for _, w := range webs {
		r := ir.Virt(w)
		slot[r] = f.NewSpillSlot()
		if readBeforeWritten(f, r) {
			entryStores = append(entryStores, r)
		}
	}
	var temps []ir.Reg
	for r := range slot {
		temps = append(temps, r)
	}

	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		if b.ID == 0 {
			for _, p := range f.Params {
				if s, ok := slot[p]; ok {
					out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{p}, Imm: s})
				}
			}
			for _, r := range entryStores {
				out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{r}, Imm: slot[r]})
			}
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			var replaced map[ir.Reg]ir.Reg
			for ui, u := range in.Uses {
				s, ok := slot[u]
				if !ok {
					continue
				}
				t, dup := replaced[u]
				if !dup {
					t = f.NewReg()
					if replaced == nil {
						replaced = map[ir.Reg]ir.Reg{}
					}
					replaced[u] = t
					temps = append(temps, t)
					out = append(out, ir.Instr{Op: ir.SpillLoad, Defs: []ir.Reg{t}, Imm: s})
				}
				in.Uses[ui] = t
			}
			out = append(out, in)
			if d := in.Def(); d.Valid() {
				if s, ok := slot[d]; ok {
					out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{d}, Imm: s})
				}
			}
		}
		b.Instrs = out
	}
	return temps
}
