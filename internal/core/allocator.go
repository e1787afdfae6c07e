package core

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/telemetry"
)

// Allocator is the paper's full coloring system (Figure 8): renumber
// and build happen in the driver; here we build the RPG, run
// optimistic simplification, derive the CPG, and perform the
// integrated preference-directed selection with deferred coalescing
// and active spilling.
type Allocator struct {
	mode     Mode
	ablation Ablation
}

// New returns the full-preference allocator ("full preferences" in
// Figures 10 and 11).
func New() *Allocator { return &Allocator{mode: FullPreferences} }

// NewCoalesceOnly returns the configuration of §6.1 that reflects
// only coalescing preferences ("only coalescing" in the figures).
func NewCoalesceOnly() *Allocator { return &Allocator{mode: CoalesceOnly} }

// Name implements regalloc.Allocator.
func (a *Allocator) Name() string {
	if a.mode == CoalesceOnly {
		return "pref-coalesce" + a.ablation.suffix()
	}
	return "pref-full" + a.ablation.suffix()
}

// Mode returns the preference mode.
func (a *Allocator) Mode() Mode { return a.mode }

// Allocate implements regalloc.Allocator.
//
// All phase-local structures (RPG, simplification stack, CPG,
// selector state) live on the context workspace's allocator scratch,
// so repeated rounds — and repeated Runs on a pooled workspace —
// rebuild into the same backing arrays instead of reallocating them.
func (a *Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k, tel := ctx.Graph, ctx.K(), ctx.Telemetry
	cs := coreScratchFor(ctx)
	sp := tel.Begin()
	rpg := BuildRPGInto(&cs.rpg, ctx, a.mode)
	tel.End(telemetry.PhaseRPG, sp)
	sp = tel.Begin()
	stack, potential := simplifyOptimisticInto(cs, g, k)
	tel.End(telemetry.PhaseSimplify, sp)
	sp = tel.Begin()
	cpg := &cs.cpg
	if a.ablation.NoCPG {
		chainCPG(cpg, g.NumNodes(), stack)
	} else if err := buildCPGInto(cpg, g, stack, potential, k); err != nil {
		return nil, err
	}
	tel.End(telemetry.PhaseCPG, sp)
	s := &cs.sel
	s.reset(ctx, rpg, cpg, a.mode)
	s.ab = a.ablation
	return s.run()
}

// SimplifyForBench exposes the optimistic simplification for the
// repository's benchmarks, which time CPG construction in isolation.
func SimplifyForBench(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	return simplifyOptimistic(g, k)
}
