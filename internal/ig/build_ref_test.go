package ig

import (
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// buildReference is the pre-word-kernel builder: per-element AddEdge
// loops over the members of the liveness rows, retained as the oracle the bulk-OR kernels
// must match bit for bit — adjacency, degrees, and move list included.
func buildReference(f *ir.Func, m *target.Machine, loops *cfg.LoopInfo) *Graph {
	g := NewGraph(m.NumRegs, f.NumVirt)
	live := liveness.Compute(f)

	var entryLive []ir.Reg
	entry := live.LiveInRow(0)
	for r := bitset.Next(entry, 0); r >= 0; r = bitset.Next(entry, r+1) {
		entryLive = append(entryLive, ir.Reg(r))
	}
	for i, a := range entryLive {
		for _, b := range entryLive[i+1:] {
			g.AddEdge(g.NodeOf(a), g.NodeOf(b))
		}
	}
	volatiles := make([]NodeID, 0, m.NumRegs)
	for _, v := range m.VolatileRegs() {
		volatiles = append(volatiles, NodeID(v))
	}

	for _, b := range f.Blocks {
		freq := loops.Freq(b.ID)
		live.ForEachInstrReverse(b, func(_ int, in *ir.Instr, liveAfter []uint64) {
			for _, d := range in.Defs {
				dn := g.NodeOf(d)
				for i := bitset.Next(liveAfter, 0); i >= 0; i = bitset.Next(liveAfter, i+1) {
					l := ir.Reg(i)
					ln := g.NodeOf(l)
					if ln == dn {
						continue
					}
					if in.IsCopy() && l == in.Uses[0] {
						continue
					}
					g.AddEdge(dn, ln)
				}
			}
			if in.Op == ir.Call {
				def := in.Def()
				for i := bitset.Next(liveAfter, 0); i >= 0; i = bitset.Next(liveAfter, i+1) {
					l := ir.Reg(i)
					if l == def {
						continue
					}
					ln := g.NodeOf(l)
					for _, vn := range volatiles {
						if ln != vn {
							g.AddEdge(ln, vn)
						}
					}
				}
			}
			if in.IsCopy() {
				x, y := g.NodeOf(in.Defs[0]), g.NodeOf(in.Uses[0])
				if x != y {
					g.AddMove(x, y, freq)
				}
			}
		})
	}

	g.Freeze()
	return g
}

// TestBuildMatchesReference runs the word-kernel builder and the
// retained reference over the whole synthetic workload on several
// machines and demands identical graphs: same adjacency words, same
// degrees, same moves in the same order.
func TestBuildMatchesReference(t *testing.T) {
	machines := []*target.Machine{
		target.X86Like(8),
		target.S390Like(8),
		target.UsageModel(8),
	}
	profiles := append(workload.Benchmarks(), workload.Large())
	checked := 0
	for _, m := range machines {
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				ssa.Destruct(f)
				if _, err := Renumber(f); err != nil {
					t.Fatalf("%s: Renumber: %v", f.Name, err)
				}
				dom := cfg.NewDomTree(f)
				loops := cfg.FindLoops(f, dom)

				got, err := Build(f, m, loops)
				if err != nil {
					t.Fatalf("%s: Build: %v", f.Name, err)
				}
				want := buildReference(f, m, loops)

				if got.n != want.n || got.nPhys != want.nPhys {
					t.Fatalf("%s on %s: shape %d/%d vs %d/%d", f.Name, m.Name, got.n, got.nPhys, want.n, want.nPhys)
				}
				for i := 0; i < got.n; i++ {
					for wi := 0; wi < got.words; wi++ {
						if got.adj[i][wi] != want.adj[i][wi] {
							t.Fatalf("%s on %s: adj[%d] word %d: %#x vs %#x", f.Name, m.Name, i, wi, got.adj[i][wi], want.adj[i][wi])
						}
					}
					if got.degree[i] != want.degree[i] {
						t.Fatalf("%s on %s: degree[%d]: %d vs %d", f.Name, m.Name, i, got.degree[i], want.degree[i])
					}
				}
				if len(got.moves) != len(want.moves) {
					t.Fatalf("%s on %s: %d moves vs %d", f.Name, m.Name, len(got.moves), len(want.moves))
				}
				for i := range got.moves {
					if got.moves[i] != want.moves[i] {
						t.Fatalf("%s on %s: move %d: %+v vs %+v", f.Name, m.Name, i, got.moves[i], want.moves[i])
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("empty corpus")
	}
}
