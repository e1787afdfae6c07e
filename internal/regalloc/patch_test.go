package regalloc_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// spillModes are the driver's three ways of inserting spill code; all
// of them go through the same round patch.
var spillModes = []struct {
	name string
	opts regalloc.Options
}{
	{"everywhere", regalloc.Options{}},
	{"remat", regalloc.Options{Rematerialize: true}},
	{"blocklocal", regalloc.Options{BlockLocalSpills: true}},
}

// TestPatchedRoundsMatchRebuild is the differential test of the spill
// round patch (DESIGN.md §20): on every round after the first, the
// numbering, liveness, costs and interference graph the driver derives
// from the previous round's must equal a from-scratch renumber and
// NewContextIn on a copy of the same function. It runs pref-full on the
// paper's suite at k=16/24/32, on Large at k=16 and on fuzz seeds 1–200
// at k=2/3/4/8, under every spill mode.
func TestPatchedRoundsMatchRebuild(t *testing.T) {
	type input struct {
		f *ir.Func
		m *target.Machine
	}
	var inputs []input
	for _, k := range []int{16, 24, 32} {
		m := target.UsageModel(k)
		for _, p := range workload.Benchmarks() {
			for _, f := range workload.Generate(p, m) {
				inputs = append(inputs, input{f, m})
			}
		}
	}
	large := target.UsageModel(16)
	for _, f := range workload.Generate(workload.Large(), large) {
		inputs = append(inputs, input{f, large})
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for _, k := range []int{2, 3, 4, 8} {
		m := target.UsageModel(k)
		for seed := int64(1); seed <= seeds; seed++ {
			inputs = append(inputs, input{workload.GenerateRawFunc(fuzzProfile, m, seed), m})
		}
		for _, src := range patchEdgeCases {
			inputs = append(inputs, input{ir.MustParse(src), m})
		}
	}
	for _, mode := range spillModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.Workspace = regalloc.NewWorkspace()
			patched := 0
			for _, in := range inputs {
				n, err := patchedRounds(in.f, in.m, opts)
				if err != nil {
					t.Fatalf("%s k=%d: %v", in.f.Name, in.m.NumRegs, err)
				}
				patched += n
			}
			t.Logf("%d functions, %d patched rounds", len(inputs), patched)
			if patched == 0 {
				t.Fatal("no round was patched")
			}
		})
	}
}

// patchEdgeCases are shapes the generators do not make: a value read
// before any definition reaches it (its spill code stores the
// undefined entry value), and an entry block that is a loop header,
// where every round rebuilds.
var patchEdgeCases = []string{`
func undef(v0, v1) {
b0:
  v2 = add v0, v1
  branch v2, b1, b2
b1:
  v3 = add v0, v2
  v4 = mul v3, v1
  jump b2
b2:
  v5 = add v3, v4
  v6 = mul v5, v2
  v7 = add v6, v0
  v8 = add v7, v1
  ret v8
}
`, `
func entryloop(v0, v1) {
b0:
  v2 = add v0, v1
  v3 = mul v2, v0
  v4 = add v3, v1
  v0 = add v4, v2
  branch v3, b0, b1
b1:
  v5 = add v0, v4
  ret v5
}
`}

// patchedRounds runs pref-full's round loop over f, comparing every
// round after the first with a rebuild, and returns how many rounds it
// compared. A round whose coloring fails ends the loop without error:
// the comparison, not convergence, is under test.
func patchedRounds(f *ir.Func, m *target.Machine, opts regalloc.Options) (int, error) {
	loop := regalloc.NewRoundLoop(f, m, opts)
	for round := 1; round <= 16; round++ {
		var want *regalloc.Context
		var wantInfo *ig.RenumberInfo
		if round > 1 {
			var err error
			if want, wantInfo, err = loop.Rebuild(); err != nil {
				return round - 2, fmt.Errorf("round %d rebuild: %w", round, err)
			}
		}
		ctx, info, err := loop.Begin()
		if err != nil {
			return round - 2, fmt.Errorf("round %d: %w", round, err)
		}
		if want != nil {
			if err := diffRound(ctx, info, want, wantInfo); err != nil {
				return round - 2, fmt.Errorf("round %d: patch differs from a rebuild: %w", round, err)
			}
		}
		res, err := prefFull.Allocate(ctx)
		if err != nil || regalloc.CheckResult(ctx, res) != nil || len(res.Spilled) == 0 {
			return round - 1, nil
		}
		loop.Spill(res)
	}
	return 15, nil
}

// diffRound returns the first difference between a patched round
// (got) and a rebuilt one (want).
func diffRound(got *regalloc.Context, gotInfo *ig.RenumberInfo, want *regalloc.Context, wantInfo *ig.RenumberInfo) error {
	if g, w := got.F.String(), want.F.String(); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				return fmt.Errorf("function line %d: %q, rebuild %q", i+1, gl[i], wl[i])
			}
		}
		return fmt.Errorf("function has %d lines, rebuild %d", len(gl), len(wl))
	}
	if gotInfo.NumWebs != wantInfo.NumWebs {
		return fmt.Errorf("%d webs, rebuild %d", gotInfo.NumWebs, wantInfo.NumWebs)
	}
	for w := range wantInfo.Origins {
		if !slices.Equal(gotInfo.Origins[w], wantInfo.Origins[w]) {
			return fmt.Errorf("v%d origins %v, rebuild %v", w, gotInfo.Origins[w], wantInfo.Origins[w])
		}
	}
	for _, b := range want.F.Blocks {
		if !slices.Equal(got.Live.LiveInRow(b.ID), want.Live.LiveInRow(b.ID)) {
			return fmt.Errorf("b%d live-in row differs", b.ID)
		}
		if !slices.Equal(got.Live.LiveOutRow(b.ID), want.Live.LiveOutRow(b.ID)) {
			return fmt.Errorf("b%d live-out row differs", b.ID)
		}
	}
	if !slices.Equal(got.SpillTemp, want.SpillTemp) {
		return fmt.Errorf("spill-temporary flags differ")
	}
	gg, wg := got.Graph, want.Graph
	if gg.NumNodes() != wg.NumNodes() {
		return fmt.Errorf("%d graph nodes, rebuild %d", gg.NumNodes(), wg.NumNodes())
	}
	for w := 0; w < wantInfo.NumWebs; w++ {
		gc, wc := got.Costs, want.Costs
		if gc.MemCost(w) != wc.MemCost(w) || gc.OpCosts[w] != wc.OpCosts[w] {
			return fmt.Errorf("v%d Mem_Cost %v, Op_Cost %v; rebuild %v, %v", w, gc.MemCost(w), gc.OpCosts[w], wc.MemCost(w), wc.OpCosts[w])
		}
		for _, vol := range []bool{false, true} {
			if gc.CallCost(w, vol) != wc.CallCost(w, vol) {
				return fmt.Errorf("v%d Call_Cost(volatile=%v) %v, rebuild %v", w, vol, gc.CallCost(w, vol), wc.CallCost(w, vol))
			}
		}
		n := gg.NodeOf(ir.Virt(w))
		if gg.SpillCost(n) != wg.SpillCost(n) {
			return fmt.Errorf("v%d spill cost %v, rebuild %v", w, gg.SpillCost(n), wg.SpillCost(n))
		}
	}
	for n := ig.NodeID(0); int(n) < wg.NumNodes(); n++ {
		if !slices.Equal(gg.OrigRow(n), wg.OrigRow(n)) {
			return fmt.Errorf("node %v: neighbors %v, rebuild %v", wg.RegOf(n), gg.OrigNeighbors(n), wg.OrigNeighbors(n))
		}
		if gg.Degree(n) != wg.Degree(n) {
			return fmt.Errorf("node %v: degree %d, rebuild %d", wg.RegOf(n), gg.Degree(n), wg.Degree(n))
		}
	}
	if gm, wm := gg.Moves(), wg.Moves(); !slices.Equal(gm, wm) {
		for i := range min(len(gm), len(wm)) {
			if gm[i] != wm[i] {
				return fmt.Errorf("move %d is %v, rebuild %v", i, gm[i], wm[i])
			}
		}
		return fmt.Errorf("%d moves, rebuild %d", len(gm), len(wm))
	}
	return nil
}
