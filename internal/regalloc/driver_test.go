package regalloc_test

import (
	"strings"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// alwaysSpill spills the most expensive web every round — the driver
// must give up after MaxRounds instead of looping forever.
type alwaysSpill struct{}

func (alwaysSpill) Name() string { return "always-spill" }

func (alwaysSpill) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g := ctx.Graph
	res := regalloc.NewResult(g)
	best := ig.NodeID(-1)
	for _, n := range g.ActiveNodes() {
		w := int(n) - g.NumPhys()
		if ctx.SpillTemp[w] {
			continue
		}
		if best < 0 || g.SpillCost(n) > g.SpillCost(best) {
			best = n
		}
	}
	if best >= 0 {
		res.Spilled = append(res.Spilled, best)
		return res, nil
	}
	// Nothing left to victimize: color trivially (everything fits by
	// now or the test machine is large enough).
	coloring := regalloc.NewColoring(g)
	for _, n := range g.ActiveNodes() {
		avail := coloring.Available(n, ctx.K())
		if len(avail) == 0 {
			return nil, errNoColor
		}
		coloring.Set(n, avail[0])
	}
	coloring.Fill(res)
	return res, nil
}

var errNoColor = &noColorError{}

type noColorError struct{}

func (*noColorError) Error() string { return "no color available" }

func TestDriverMaxRoundsExhaustion(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = add v0, v0
  v2 = add v1, v0
  v3 = add v2, v1
  ret v3
}
`)
	m := target.UsageModel(8)
	_, _, err := regalloc.Run(f, m, alwaysSpill{}, regalloc.Options{MaxRounds: 3})
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("error = %v, want non-convergence", err)
	}
}

// badAllocator returns an inconsistent coloring; the driver's
// validation must catch it unless disabled.
type badAllocator struct{}

func (badAllocator) Name() string { return "bad" }

func (badAllocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g := ctx.Graph
	res := regalloc.NewResult(g)
	for _, n := range g.ActiveNodes() {
		res.Colors[n] = 0 // everyone gets r0, interference be damned
	}
	return res, nil
}

func TestDriverValidationCatchesBadColoring(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = add v0, v0
  v2 = add v1, v0
  ret v2
}
`)
	m := target.UsageModel(8)
	_, _, err := regalloc.Run(f, m, badAllocator{}, regalloc.Options{})
	if err == nil {
		t.Fatal("validation accepted an interfering coloring")
	}
	if !strings.Contains(err.Error(), "share") {
		t.Errorf("error = %v, want shared-register complaint", err)
	}
}

func TestDriverSpillsParameters(t *testing.T) {
	// Force the parameter itself to spill: it is live across the
	// whole high-pressure body on a 4-register machine. The entry
	// must get a spillstore for it so later reloads see the value.
	src := `
func f(v0) {
b0:
  v1 = loadimm 1
  v2 = loadimm 2
  v3 = loadimm 3
  v4 = loadimm 4
  v5 = add v1, v2
  v6 = add v5, v3
  v7 = add v6, v4
  v8 = add v7, v1
  v9 = add v8, v2
  v10 = add v9, v0
  ret v10
}
`
	f := ir.MustParse(src)
	m := target.UsageModel(4)
	out, _, err := regalloc.Run(f, m, mustAlloc(t, "chaitin"), regalloc.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, in := range []int64{0, 42} {
		a, _ := ir.Interp(f, map[ir.Reg]int64{f.Params[0]: in}, ir.InterpOptions{})
		b, _ := ir.Interp(out, map[ir.Reg]int64{out.Params[0]: in}, ir.InterpOptions{})
		if a.Ret != b.Ret {
			t.Errorf("input %d: %d vs %d\n%s", in, a.Ret, b.Ret, out)
		}
	}
}

func mustAlloc(t *testing.T, name string) regalloc.Allocator {
	t.Helper()
	return allocatorByName(t, name)
}

func TestDriverSkipValidate(t *testing.T) {
	// With validation off, the bad coloring flows through to the
	// rewrite; the driver must still produce structurally valid IR
	// (semantics are knowingly broken — that is the point of the
	// validator this test bypasses).
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = add v0, v0
  ret v1
}
`)
	m := target.UsageModel(8)
	out, _, err := regalloc.Run(f, m, badAllocator{}, regalloc.Options{SkipValidate: true})
	if err != nil {
		t.Fatalf("Run with SkipValidate: %v", err)
	}
	if err := ir.Validate(out); err != nil {
		t.Errorf("rewrite produced invalid IR: %v", err)
	}
}
