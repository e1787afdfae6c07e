package liveness_test

import (
	"fmt"
	"slices"
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// regSet is the map set the liveness API handed out before it moved
// to rows.
type regSet map[ir.Reg]struct{}

// refForEachInstrReverse is the map-based walk the row walk replaced,
// kept as its oracle: the same backward steps, over a set seeded from
// the block's live-out. It returns the set it ends with, which is the
// block's live-in.
func refForEachInstrReverse(liveOut regSet, b *ir.Block, fn func(idx int, in *ir.Instr, liveAfter regSet)) regSet {
	live := regSet{}
	for r := range liveOut {
		live[r] = struct{}{}
	}
	for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
		in := &b.Instrs[idx]
		fn(idx, in, live)
		for _, d := range in.Defs {
			delete(live, d)
		}
		if in.Op != ir.Phi {
			for _, u := range in.Uses {
				if u != ir.NoReg {
					live[u] = struct{}{}
				}
			}
		}
	}
	return live
}

// refLiveAcrossCalls is the map-based LiveAcrossCalls the row version
// replaced: every register, physical ones included, keyed by itself.
func refLiveAcrossCalls(f *ir.Func, li *liveness.Info, freq func(ir.BlockID) float64) map[ir.Reg]float64 {
	out := map[ir.Reg]float64{}
	for _, b := range f.Blocks {
		w := freq(b.ID)
		refForEachInstrReverse(rowSet(li.LiveOutRow(b.ID)), b, func(_ int, in *ir.Instr, liveAfter regSet) {
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

func rowSet(row []uint64) regSet {
	s := regSet{}
	for r := bitset.Next(row, 0); r >= 0; r = bitset.Next(row, r+1) {
		s[ir.Reg(r)] = struct{}{}
	}
	return s
}

func rowRegs(row []uint64) []ir.Reg {
	var out []ir.Reg
	for r := bitset.Next(row, 0); r >= 0; r = bitset.Next(row, r+1) {
		out = append(out, ir.Reg(r))
	}
	return out
}

func sortedRegs(s regSet) []ir.Reg {
	out := make([]ir.Reg, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// callSrc has calls without a result (NoReg defs) and a call that
// defines a virtual register, inside a loop that carries a φ. The
// generator's calls always define the physical return register, so
// the corpus adds this function by hand.
const callSrc = `
func calls(v0, v1) {
b0:
  v2 = loadimm 1
  jump b1
b1:
  v3 = phi v2, v4
  call @g v0
  v5 = call @k v1
  v4 = add v3, v5
  r0 = move v4
  call @h r0
  branch v4, b1, b2
b2:
  ret v4
}
`

// rowsCorpus is the nine profiles and the large profile as the
// pipeline emits them (φ-free), fuzz seeds 1–100 both raw and in SSA
// form, where φ-functions carry values across edges, and callSrc.
func rowsCorpus() []*ir.Func {
	m := target.UsageModel(16)
	var fs []*ir.Func
	for _, p := range append(workload.Benchmarks(), workload.Large()) {
		fs = append(fs, workload.Generate(p, m)...)
	}
	for seed := int64(1); seed <= 100; seed++ {
		raw := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
		inSSA := raw.Clone()
		ssa.Build(inSSA)
		fs = append(fs, raw, inSSA)
	}
	return append(fs, ir.MustParse(callSrc))
}

// TestRowsMatchReference pins the row API to the map-based walk it
// replaced: on every corpus function, each instruction's live-after
// row holds exactly the reference set, the walk ends on the block's
// live-in row, and LiveAcrossCalls gives every virtual register the
// reference's weight, bit for bit. One Scratch serves the whole sweep,
// so reuse across functions of different sizes is covered too.
func TestRowsMatchReference(t *testing.T) {
	var ws liveness.Scratch
	var instrs, phis, voidCalls, virtCalls int
	for fi, f := range rowsCorpus() {
		li := liveness.ComputeInto(f, &ws)
		for _, b := range f.Blocks {
			where := fmt.Sprintf("func %d (%s) b%d", fi, f.Name, b.ID)
			got := make([][]ir.Reg, len(b.Instrs))
			li.ForEachInstrReverse(b, func(idx int, _ *ir.Instr, liveAfter []uint64) {
				got[idx] = rowRegs(liveAfter)
			})
			liveIn := refForEachInstrReverse(rowSet(li.LiveOutRow(b.ID)), b, func(idx int, in *ir.Instr, liveAfter regSet) {
				instrs++
				switch {
				case in.Op == ir.Phi:
					phis++
				case in.Op == ir.Call && in.Def() == ir.NoReg:
					voidCalls++
				case in.Op == ir.Call && in.Def().IsVirt():
					virtCalls++
				}
				if want := sortedRegs(liveAfter); !slices.Equal(got[idx], want) {
					t.Fatalf("%s:%d (%v): live after = %v, reference %v", where, idx, in.Op, got[idx], want)
				}
			})
			if got, want := rowRegs(li.LiveInRow(b.ID)), sortedRegs(liveIn); !slices.Equal(got, want) {
				t.Fatalf("%s: live-in row = %v, but the walk ends on %v", where, got, want)
			}
		}

		loops := cfg.FindLoops(f, cfg.NewDomTree(f))
		want := refLiveAcrossCalls(f, li, loops.Freq)
		got := li.LiveAcrossCalls(nil, loops.Freq)
		if len(got) != f.NumVirt {
			t.Fatalf("func %d (%s): %d across-call weights for %d virtual registers", fi, f.Name, len(got), f.NumVirt)
		}
		for v, w := range got {
			if ref := want[ir.Virt(v)]; w != ref {
				t.Fatalf("func %d (%s): v%d across-call weight = %v, reference %v", fi, f.Name, v, w, ref)
			}
		}
		for r := range want {
			if r.IsVirt() && r.VirtNum() >= f.NumVirt {
				t.Fatalf("func %d (%s): reference weighs %v beyond NumVirt %d", fi, f.Name, r, f.NumVirt)
			}
		}
	}
	if phis == 0 || voidCalls == 0 || virtCalls == 0 {
		t.Fatalf("sweep lacks coverage: %d φs, %d void calls, %d calls defining a virtual register", phis, voidCalls, virtCalls)
	}
	t.Logf("%d instructions matched (%d φs, %d void calls, %d calls defining a virtual register)", instrs, phis, voidCalls, virtCalls)
}
