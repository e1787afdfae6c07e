package regalloc_test

import (
	"fmt"
	"slices"
	"testing"

	"prefcolor/internal/core"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// checkSpillMatches inserts spill code for webs into f with
// InsertSpillEverywhere and into a clone with the reference inserter.
// Both must agree on the function text, the register and slot
// counters, and the set of returned temporaries. f is left spilled,
// ready for the next round.
func checkSpillMatches(t *testing.T, label string, f *ir.Func, webs []int) []ir.Reg {
	t.Helper()
	ref := f.Clone()
	wantTemps := regalloc.RefInsertSpillCode(ref, webs)
	temps := regalloc.InsertSpillEverywhere(f, webs)

	if got, want := f.String(), ref.String(); got != want {
		t.Fatalf("%s, webs %v: spill code differs from the reference\ngot:\n%s\nwant:\n%s", label, webs, got, want)
	}
	if f.NumVirt != ref.NumVirt || f.NumSpillSlots != ref.NumSpillSlots {
		t.Fatalf("%s: NumVirt/NumSpillSlots = %d/%d, reference %d/%d",
			label, f.NumVirt, f.NumSpillSlots, ref.NumVirt, ref.NumSpillSlots)
	}
	got, exp := slices.Clone(temps), slices.Clone(wantTemps)
	slices.Sort(got)
	slices.Sort(exp)
	if !slices.Equal(got, exp) {
		t.Fatalf("%s: temporaries %v, reference %v", label, got, exp)
	}
	return temps
}

// spillRoundsMatchReference replays Run's default round loop over f
// with the pref-full allocator and checks every round's spill
// insertion against the reference. It returns the number of spill
// rounds.
func spillRoundsMatchReference(t *testing.T, f *ir.Func, m *target.Machine) int {
	t.Helper()
	f = f.Clone()
	temp := map[ir.Reg]bool{}
	for round := 1; round <= 16; round++ {
		info, err := ig.Renumber(f)
		if err != nil {
			t.Fatal(err)
		}
		spillTemp := make([]bool, info.NumWebs)
		for w, origins := range info.Origins {
			for _, o := range origins {
				spillTemp[w] = spillTemp[w] || temp[o]
			}
		}
		ctx, err := regalloc.NewContext(f, m, spillTemp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New().Allocate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Spilled) == 0 {
			return round - 1
		}
		webs := regalloc.ExpandSpills(ctx.Graph, res.Spilled)
		clear(temp)
		for w, isTemp := range spillTemp {
			if isTemp {
				temp[ir.Virt(w)] = true
			}
		}
		for _, r := range checkSpillMatches(t, fmt.Sprintf("%s k=%d round %d", f.Name, m.NumRegs, round), f, webs) {
			temp[r] = true
		}
	}
	t.Fatalf("%s k=%d: no convergence in 16 rounds", f.Name, m.NumRegs)
	return 0
}

// TestSpillInsertionMatchesReference compares the spill inserter with
// the map-based reference on every spill round of the paper's nine
// profiles at k = 16/24/32, the Large profile, and fuzz seeds 1–200 at
// k = 4/8, plus hand cases for the entry-capture and operand-sharing
// corners.
func TestSpillInsertionMatchesReference(t *testing.T) {
	rounds := 0
	for _, k := range []int{16, 24, 32} {
		m := target.UsageModel(k)
		for _, p := range workload.Benchmarks() {
			for _, f := range workload.Generate(p, m) {
				rounds += spillRoundsMatchReference(t, f, m)
			}
		}
	}
	m16 := target.UsageModel(16)
	for _, f := range workload.Generate(workload.Large(), m16) {
		rounds += spillRoundsMatchReference(t, f, m16)
	}
	for _, k := range []int{4, 8} {
		m := target.UsageModel(k)
		for seed := int64(1); seed <= 200; seed++ {
			rounds += spillRoundsMatchReference(t, workload.GenerateRawFunc(workload.Fuzz(), m, seed), m)
		}
	}
	if rounds == 0 {
		t.Fatal("no spill round was exercised")
	}
	t.Logf("%d spill rounds match the reference", rounds)

	hand := []struct {
		name, src string
		webs      []int
	}{
		{"spilled parameter", `func p(v0, v1) {
b0:
  v2 = add v0, v1
  ret v2
}
`, []int{0, 2}},
		{"read before written", `func rbw(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 3
  jump b2
b2:
  v2 = add v1, v0
  ret v2
}
`, []int{1}},
		{"one web used twice by one instruction", `func twice(v0) {
b0:
  v1 = loadimm 5
  v2 = mul v1, v1
  v3 = add v2, v1
  ret v3
}
`, []int{1, 2}},
		{"web used and defined by one instruction", `func self(v0) {
b0:
  v1 = loadimm 1
  jump b1
b1:
  v1 = add v1, v0
  branch v1, b1, b2
b2:
  ret v1
}
`, []int{1}},
	}
	for _, c := range hand {
		f, err := ir.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkSpillMatches(t, c.name, f, c.webs)
	}
}
