package core

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/scratch"
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

	// refSelect routes selection through the reference oracle
	// (select_ref.go) instead of the incremental ready-set structures.
	// Name() is unchanged so stats and digests stay comparable — the
	// two paths are pinned bit-identical.
	refSelect bool
}

// New returns the full-preference allocator ("full preferences" in
// Figures 10 and 11).
func New() *Allocator { return &Allocator{mode: FullPreferences} }

// NewCoalesceOnly returns the configuration of §6.1 that reflects
// only coalescing preferences ("only coalescing" in the figures).
func NewCoalesceOnly() *Allocator { return &Allocator{mode: CoalesceOnly} }

// WithReferenceSelector returns a copy of a that selects with the
// retained full-scan reference implementation. The differential tests
// use it as the oracle the incremental selector must match exactly.
func (a *Allocator) WithReferenceSelector() *Allocator {
	c := *a
	c.refSelect = true
	return &c
}

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
	s := newSelectorIn(&cs.sel, ctx, rpg, cpg, a.mode)
	s.ab = a.ablation
	s.refSelect = a.refSelect
	return s.run()
}

// SimplifyForBench exposes the optimistic simplification for the
// repository's benchmarks, which time CPG construction in isolation.
func SimplifyForBench(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	return simplifyOptimistic(g, k)
}

// simplifyOptimistic empties the graph in Briggs fashion, returning
// the removal order and which nodes were removed at significant
// degree (the potential spills of step 4's "spilled node" clause),
// as a node-id-indexed mark slice. The graph is left fully removed;
// selection works off the original adjacency, as §5.3 prescribes
// ("add the chosen node to the interference graph").
func simplifyOptimistic(g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	return simplifyOptimisticInto(nil, g, k)
}

// simplifyOptimisticInto is simplifyOptimistic drawing its stack and
// mark slice from the workspace scratch (nil cs allocates fresh). The
// sweep iterates the live graph directly instead of snapshotting
// ActiveNodes: removing the visited node never changes which later
// nodes the sweep sees, and degrees are read at visit time in both
// forms, so the removal order is unchanged.
func simplifyOptimisticInto(cs *coreScratch, g *ig.Graph, k int) ([]ig.NodeID, []bool) {
	var order []ig.NodeID
	var potential []bool
	if cs != nil {
		order = cs.order[:0]
		cs.potential = scratch.Slice(cs.potential, g.NumNodes())
		potential = cs.potential
	} else {
		potential = make([]bool, g.NumNodes())
	}
	for {
		progress := false
		g.ForEachActive(func(n ig.NodeID) {
			if g.Degree(n) < k {
				g.Remove(n)
				order = append(order, n)
				progress = true
			}
		})
		if progress {
			continue
		}
		cand := regalloc.SpillCandidate(g)
		if cand < 0 {
			break
		}
		potential[cand] = true
		g.Remove(cand)
		order = append(order, cand)
	}
	if cs != nil {
		cs.order = order
	}
	return order, potential
}
