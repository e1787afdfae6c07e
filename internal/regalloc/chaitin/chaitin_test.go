package chaitin_test

import (
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/regalloc/chaitin"
	"prefcolor/internal/target"
)

func ctxFor(t *testing.T, src string, k int) *regalloc.Context {
	t.Helper()
	f := ir.MustParse(src)
	if _, err := ig.Renumber(f); err != nil {
		t.Fatal(err)
	}
	ctx, err := regalloc.NewContext(f, target.UsageModel(k), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// Chaitin is pessimistic: on an uncolorable graph it reports spills
// and no colors at all (the round restarts after spilling).
func TestChaitinPessimisticSpill(t *testing.T) {
	ctx := ctxFor(t, `
func f(v0) {
b0:
  v1 = add v0, v0
  v2 = add v0, v1
  v3 = add v0, v2
  v4 = add v0, v3
  v5 = add v1, v2
  v6 = add v5, v3
  v7 = add v6, v4
  v8 = add v7, v0
  ret v8
}
`, 4)
	res, err := chaitin.New().Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) == 0 {
		t.Fatal("expected a spill decision at K=4")
	}
	colored := 0
	for _, c := range res.Colors {
		if c >= 0 {
			colored++
		}
	}
	if colored != 0 {
		t.Errorf("pessimistic round colored %d nodes despite spilling", colored)
	}
}

// On a colorable graph Chaitin coalesces the copy and colors everything.
func TestChaitinColorsAndCoalesces(t *testing.T) {
	ctx := ctxFor(t, `
func f(v0) {
b0:
  v1 = move v0
  v2 = add v1, v1
  ret v2
}
`, 8)
	res, err := chaitin.New().Allocate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) != 0 {
		t.Fatalf("spilled %v on an easy graph", res.Spilled)
	}
	if err := regalloc.CheckResult(ctx, res); err != nil {
		t.Fatal(err)
	}
	g := ctx.Graph
	c0, _ := res.ColorOf(g, g.NodeOf(ir.Virt(0)))
	c1, _ := res.ColorOf(g, g.NodeOf(ir.Virt(1)))
	if c0 != c1 {
		t.Errorf("copy-related webs got r%d and r%d; aggressive coalescing should merge them", c0, c1)
	}
}
