package core

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/telemetry"
)

// Allocator is the paper's full coloring system (Figure 8): renumber
// and build happen in the driver; here we build the RPG, run
// optimistic simplification, which also derives the coloring
// precedence, and perform the integrated preference-directed selection
// with deferred coalescing and active spilling.
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
// All phase-local structures (RPG, removal order, selector state) live
// on the context workspace's allocator scratch,
// so repeated rounds — and repeated Runs on a pooled workspace —
// rebuild into the same backing arrays instead of reallocating them.
func (a *Allocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g, k, tel := ctx.Graph, ctx.K(), ctx.Telemetry
	cs := coreScratchFor(ctx)
	sp := tel.Begin()
	rpg := BuildRPGInto(&cs.rpg, ctx, a.mode)
	tel.End(telemetry.PhaseRPG, sp)
	sp = tel.Begin()
	cs.ord.simplify(g, k)
	tel.End(telemetry.PhaseSimplify, sp)
	// Simplify does the CPG's work (removalOrder). The phase keeps its
	// place in every phase table (telemetry, /metrics, the benchmark's
	// layers) with an empty span, which reads about 0.
	tel.End(telemetry.PhaseCPG, tel.Begin())
	s := &cs.sel
	s.reset(ctx, rpg, &cs.ord, a.mode)
	s.ab = a.ablation
	return s.run()
}

// SimplifyForBench returns the optimistic simplification's removal
// order and potential-spill marks for g at k colors, leaving g
// untouched: the input BuildCPG takes, for Explain and the
// repository's benchmarks.
func SimplifyForBench(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	var o removalOrder
	o.simplify(g, k)
	return o.stack, o.potential
}
