package core

import (
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// BenchmarkBuildCPG measures the steady-state CPG rebuild (the
// buildCPGInto path every spill round pays). The "large" shape at low k
// is the transitive-reduction stress: most nodes hang off Bottom, so
// most step-7 edges prune an n→Bottom edge.
func BenchmarkBuildCPG(b *testing.B) {
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
			k := m.NumRegs
			f := workload.GenerateRawFunc(profile, m, 1)
			if _, err := ig.Renumber(f); err != nil {
				b.Fatal(err)
			}
			ctx, err := regalloc.NewContext(f, m, nil)
			if err != nil {
				b.Fatal(err)
			}
			stack, potential := simplifyOptimistic(ctx.Graph, k)
			b.Logf("nodes %d, stack %d", ctx.Graph.NumNodes(), len(stack))
			c := &CPG{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := buildCPGInto(c, ctx.Graph, stack, potential, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
