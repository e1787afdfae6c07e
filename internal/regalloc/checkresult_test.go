package regalloc_test

import (
	"fmt"
	"testing"

	"prefcolor/internal/core"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// checkComparer wraps an allocator and, on every round, compares
// CheckResult with the reference edge walk on the round's coloring and
// on copies of it with a conflict planted: a colored web recolored to
// the register of each of a few colored neighbors, physical ones
// included.
type checkComparer struct {
	regalloc.Allocator
	t       *testing.T
	rounds  int
	planted int
}

func (c *checkComparer) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	res, err := c.Allocator.Allocate(ctx)
	if err != nil {
		return res, err
	}
	c.rounds++
	c.compare(ctx, res, "round")
	g := ctx.Graph
	colors := append([]int(nil), res.Colors...)
	for w := 0; w < g.NumWebs() && c.planted < 40*c.rounds; w += 7 {
		n := ig.NodeID(g.NumPhys() + w)
		if _, ok := res.ColorOf(g, n); !ok || g.Find(n) != n {
			continue
		}
		row := g.OrigRow(n)
		for nb, tried := 0, 0; nb < g.NumNodes() && tried < 3; nb++ {
			if row[nb>>6]&(1<<(nb&63)) == 0 {
				continue
			}
			cb, ok := res.ColorOf(g, ig.NodeID(nb))
			if !ok || cb >= ctx.K() {
				continue
			}
			tried++
			planted := &regalloc.Result{Colors: append([]int(nil), colors...), Spilled: res.Spilled}
			planted.Colors[n] = cb
			c.planted++
			c.compare(ctx, planted, fmt.Sprintf("v%d given r%d", w, cb))
		}
	}
	return res, nil
}

func (c *checkComparer) compare(ctx *regalloc.Context, res *regalloc.Result, what string) {
	got, want := regalloc.CheckResult(ctx, res), regalloc.RefCheckResult(ctx, res)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		c.t.Fatalf("%s: %s: CheckResult %v, edge walk %v", ctx.F.Name, what, got, want)
	}
}

// TestCheckResultMatchesEdgeWalk: CheckResult's color rows give the
// verdict and the error text of a walk over every interference edge,
// on every round of the nine profiles, Large and fuzz seeds 1–200, and
// on colorings with a planted conflict.
func TestCheckResultMatchesEdgeWalk(t *testing.T) {
	type job struct {
		f *ir.Func
		m *target.Machine
	}
	var jobs []job
	m16 := target.UsageModel(16)
	for _, p := range append(workload.Benchmarks(), workload.Large()) {
		for _, f := range workload.Generate(p, m16) {
			jobs = append(jobs, job{f, m16})
		}
	}
	m4 := target.UsageModel(4)
	for seed := int64(1); seed <= 200; seed++ {
		jobs = append(jobs, job{workload.GenerateRawFunc(workload.Fuzz(), m4, seed), m4})
	}
	c := &checkComparer{Allocator: core.New(), t: t}
	for _, j := range jobs {
		if _, _, err := regalloc.Run(j.f, j.m, c, regalloc.Options{}); err != nil {
			t.Fatalf("%s: %v", j.f.Name, err)
		}
	}
	if c.planted == 0 {
		t.Fatal("no conflict was planted")
	}
	t.Logf("%d rounds, %d planted conflicts", c.rounds, c.planted)
}
