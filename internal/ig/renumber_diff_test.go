package ig

import (
	"fmt"
	"reflect"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// loopIntoEntry returns a copy of f whose returning blocks branch back
// to the entry block before returning, so definitions flow around a
// back edge into b0 and meet the parameters there. Returns nil when f
// defines no virtual register to branch on.
func loopIntoEntry(f *ir.Func) *ir.Func {
	g := f.Clone()
	cond := ir.NoReg
	g.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if d := in.Def(); cond == ir.NoReg && d.IsVirt() {
			cond = d
		}
	})
	if cond == ir.NoReg {
		return nil
	}
	for _, b := range g.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.Ret {
			continue
		}
		ret := g.NewBlock()
		ret.Instrs = []ir.Instr{*t}
		*t = ir.Instr{Op: ir.Branch, Uses: []ir.Reg{cond}}
		b.Succs = []ir.BlockID{0, ret.ID}
	}
	g.RecomputePreds()
	return g
}

// withVirtualParams returns a copy of f whose physical parameters are
// replaced by the virtual registers its entry moves copy them into,
// with those moves dropped, so parameters are definitions at b0's
// entry rather than ordinary instructions.
func withVirtualParams(f *ir.Func) *ir.Func {
	g := f.Clone()
	b0 := g.Blocks[0]
	n := 0
	for n < len(b0.Instrs) && n < len(g.Params) {
		in := b0.Instrs[n]
		if !in.IsCopy() || in.Uses[0] != g.Params[n] || !in.Defs[0].IsVirt() {
			break
		}
		g.Params[n] = in.Defs[0]
		n++
	}
	b0.Instrs = b0.Instrs[n:]
	return g
}

// withoutInits returns a copy of f with every other loadimm of the
// entry block dropped. The generator initializes its whole variable
// pool there, so this leaves registers that are defined on some paths
// only, and uses no definition reaches.
func withoutInits(f *ir.Func) *ir.Func {
	g := f.Clone()
	b0 := g.Blocks[0]
	kept := b0.Instrs[:0]
	drop := false
	for _, in := range b0.Instrs {
		if in.Op == ir.LoadImm {
			if drop = !drop; drop {
				continue
			}
		}
		kept = append(kept, in)
	}
	b0.Instrs = kept
	return g
}

// renumberCorpus is the differential's input bank: the nine paper
// profiles plus large and fuzz, convention-lowered at k = 8, 16 and
// 32; variants of them that loop into the entry block, with the
// parameters made virtual; 300 raw fuzz functions, which keep
// multiple assignments, each also with half its entry initializations
// dropped (so some uses have no reaching definition, or one along some
// paths only); and the hand-written entry-loop case.
func renumberCorpus(t *testing.T) []*ir.Func {
	t.Helper()
	var fs []*ir.Func
	profiles := append(workload.Benchmarks(), workload.Large(), workload.Fuzz())
	for _, k := range []int{8, 16, 32} {
		m := target.UsageModel(k)
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				fs = append(fs, f)
				if g := loopIntoEntry(withVirtualParams(f)); g != nil {
					fs = append(fs, g)
				}
			}
		}
	}
	m := target.UsageModel(8)
	for seed := int64(1); seed <= 300; seed++ {
		f := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		partial := withoutInits(f)
		fs = append(fs, f, partial)
		if seed%10 == 0 {
			if g := loopIntoEntry(withVirtualParams(partial)); g != nil {
				fs = append(fs, g)
			}
		}
	}
	return append(fs, ir.MustParse(entryLoopSrc))
}

// TestRenumberMatchesReference pins RenumberInto to the retained
// reaching-definitions renumber: identical rewritten text, NumWebs and
// Origins on every corpus function, renumbered twice — the second pass
// renumbers already-renumbered code, the steady state of a spill
// round. One scratch serves the whole bank, so reuse is covered too.
func TestRenumberMatchesReference(t *testing.T) {
	ws := &RenumberScratch{}
	checked := 0
	for i, f := range renumberCorpus(t) {
		got, want := f.Clone(), f.Clone()
		for pass := 1; pass <= 2; pass++ {
			wi, err := renumberReference(want)
			if err != nil {
				t.Fatalf("func %d (%s) pass %d: reference: %v", i, f.Name, pass, err)
			}
			gi, err := RenumberInto(got, ws)
			if err != nil {
				t.Fatalf("func %d (%s) pass %d: %v", i, f.Name, pass, err)
			}
			where := fmt.Sprintf("func %d (%s) pass %d", i, f.Name, pass)
			if gs, ws := got.String(), want.String(); gs != ws {
				t.Fatalf("%s: rewritten code differs\n--- got\n%s\n--- reference\n%s", where, gs, ws)
			}
			if gi.NumWebs != wi.NumWebs {
				t.Fatalf("%s: NumWebs = %d, reference %d", where, gi.NumWebs, wi.NumWebs)
			}
			if !reflect.DeepEqual(gi.Origins, wi.Origins) {
				t.Fatalf("%s: Origins = %v, reference %v", where, gi.Origins, wi.Origins)
			}
			checked++
		}
	}
	t.Logf("%d renumberings matched", checked)
}

// TestRenumberOneOriginPerWeb pins the invariant RenumberInto's
// numbering relies on: the union-find only joins nodes of one
// register, so every web has exactly one origin, and it is the
// register every operand renamed to that web held before. Same corpus
// and two passes as TestRenumberMatchesReference.
func TestRenumberOneOriginPerWeb(t *testing.T) {
	ws := &RenumberScratch{}
	rows := 0
	for i, f := range renumberCorpus(t) {
		g := f.Clone()
		for pass := 1; pass <= 2; pass++ {
			before := g.Clone()
			info, err := RenumberInto(g, ws)
			if err != nil {
				t.Fatalf("func %d (%s) pass %d: %v", i, f.Name, pass, err)
			}
			where := fmt.Sprintf("func %d (%s) pass %d", i, f.Name, pass)
			if len(info.Origins) != info.NumWebs {
				t.Fatalf("%s: %d Origins rows for %d webs", where, len(info.Origins), info.NumWebs)
			}
			for w, row := range info.Origins {
				if len(row) != 1 {
					t.Fatalf("%s: web %d has origins %v, want exactly one", where, w, row)
				}
			}
			check := func(web, orig ir.Reg) {
				if web.IsVirt() && info.Origins[web.VirtNum()][0] != orig {
					t.Fatalf("%s: operand %v renamed to %v, whose origin is %v",
						where, orig, web, info.Origins[web.VirtNum()][0])
				}
			}
			for pi, p := range g.Params {
				check(p, before.Params[pi])
			}
			for bi, b := range g.Blocks {
				for ii := range b.Instrs {
					in, old := &b.Instrs[ii], &before.Blocks[bi].Instrs[ii]
					for ui, u := range in.Uses {
						check(u, old.Uses[ui])
					}
					for di, d := range in.Defs {
						check(d, old.Defs[di])
					}
				}
			}
			rows += len(info.Origins)
		}
	}
	t.Logf("%d webs, one origin each", rows)
}
