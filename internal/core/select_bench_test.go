package core

import (
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// selBenchSetup builds everything the selection phase consumes — a
// renumbered function, its context, the RPG, the simplification stack,
// and the CPG — so benchmarks can time selection in isolation.
func selBenchSetup(b *testing.B) (*regalloc.Context, *target.Machine) {
	profile := workload.Profile{
		Name: "selbench", Funcs: 1, Stmts: 256, MaxDepth: 3,
		LoopProb: 0.12, IfProb: 0.14, CallProb: 0.06, PairProb: 0.08,
		StoreProb: 0.10, Vars: 96, Params: 4,
	}
	m := target.UsageModel(16)
	f := workload.GenerateRawFunc(profile, m, 7)
	if _, err := ig.Renumber(f); err != nil {
		b.Fatal(err)
	}
	ctx, err := regalloc.NewContext(f, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, m
}

// BenchmarkSelectLarge times one full §5.3 selection pass (ready-set
// maintenance, priority ordering, register choice, deferred
// coalescing, recoloring) over a large graph. Simplification empties
// the graph and selection refills it, so each iteration rebuilds the
// pre-selection state off the clock.
func BenchmarkSelectLarge(b *testing.B) {
	ctx, m := selBenchSetup(b)
	f := ctx.F
	k := m.NumRegs
	cs := &coreScratch{}
	var ws regalloc.Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, err := regalloc.NewContextIn(&ws, f, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		rpg := BuildRPGInto(&cs.rpg, ctx, FullPreferences)
		stack, potential := simplifyOptimisticInto(cs, ctx.Graph, k)
		if err := buildCPGInto(&cs.cpg, ctx.Graph, stack, potential, k); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s := &cs.sel
		s.reset(ctx, rpg, &cs.cpg, FullPreferences)
		if _, err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriorityRecompute times the strength-differential priority
// function itself — the computation the incremental selector's
// forbidden-register masks exist to keep cheap — swept over every web
// node of a freshly initialized selector.
func BenchmarkPriorityRecompute(b *testing.B) {
	ctx, m := selBenchSetup(b)
	k := m.NumRegs
	cs := &coreScratch{}
	rpg := BuildRPGInto(&cs.rpg, ctx, FullPreferences)
	stack, potential := simplifyOptimisticInto(cs, ctx.Graph, k)
	if err := buildCPGInto(&cs.cpg, ctx.Graph, stack, potential, k); err != nil {
		b.Fatal(err)
	}
	s := &cs.sel
	s.reset(ctx, rpg, &cs.cpg, FullPreferences)
	g := ctx.Graph
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < g.NumWebs(); w++ {
			sink += s.priority(ig.NodeID(g.NumPhys() + w))
		}
	}
	benchSink = sink
}

var benchSink float64
