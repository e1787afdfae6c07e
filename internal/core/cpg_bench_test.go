package core

import (
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// benchGraphs runs fn on the round-1 interference graph of two
// generated functions at k = 6: "small", and "large", the transitive-
// reduction stress, where most nodes hang off Bottom and most step-7
// edges prune an n→Bottom edge.
func benchGraphs(b *testing.B, fn func(b *testing.B, g *ig.Graph, k int)) {
	for _, sz := range []struct {
		name        string
		stmts, vars int
	}{
		{"small", 16, 8},
		{"large", 512, 160},
	} {
		b.Run(sz.name, func(b *testing.B) {
			profile := workload.Profile{
				Name: "cpgbench", Funcs: 1, Stmts: sz.stmts, MaxDepth: 3,
				LoopProb: 0.12, IfProb: 0.16, CallProb: 0, PairProb: 0.05,
				StoreProb: 0.10, Vars: sz.vars, Params: 0,
			}
			m := target.UsageModel(6)
			f := workload.GenerateRawFunc(profile, m, 1)
			if _, err := ig.Renumber(f); err != nil {
				b.Fatal(err)
			}
			ctx, err := regalloc.NewContext(f, m, nil)
			if err != nil {
				b.Fatal(err)
			}
			fn(b, ctx.Graph, m.NumRegs)
		})
	}
}

// BenchmarkSimplify measures the steady-state simplification every
// spill round pays, which also derives the coloring precedence.
func BenchmarkSimplify(b *testing.B) {
	benchGraphs(b, func(b *testing.B, g *ig.Graph, k int) {
		var o removalOrder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.simplify(g, k)
		}
	})
}

// BenchmarkBuildCPG measures the paper's nine-step CPG construction,
// which Explain runs and allocation does not.
func BenchmarkBuildCPG(b *testing.B) {
	benchGraphs(b, func(b *testing.B, g *ig.Graph, k int) {
		stack, potential := SimplifyForBench(g, k)
		b.Logf("nodes %d, stack %d", g.NumNodes(), len(stack))
		c := &CPG{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buildCPGInto(c, g, stack, potential, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
