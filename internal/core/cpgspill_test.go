package core

import (
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/regalloc"
)

// spillWatcher is the full allocator with its selection loop run here,
// so that each node can be looked at before it is processed: a node
// that is not actively spilled and finds no register available spills
// for want of one, unless it is a spill temporary, for which
// evictForTemp may free one.
type spillWatcher struct {
	a *Allocator

	nonPotential int // webs spilled for want of a register that simplify did not mark potential
	noPhys       int // those among them without a physical neighbor
	active       int // active spills (§5.4)
	evictions    int // spill temporaries left without a register
}

func (w *spillWatcher) Name() string { return w.a.Name() }

func (w *spillWatcher) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	cs := coreScratchFor(ctx)
	rpg := BuildRPGInto(&cs.rpg, ctx, w.a.mode)
	cs.ord.simplify(ctx.Graph, ctx.K())
	s := &cs.sel
	s.reset(ctx, rpg, &cs.ord, w.a.mode)
	for _, n := range s.ord.stack {
		if s.predCount[n] == 0 {
			s.pushReady(n)
		}
	}
	s.res = regalloc.Result{Colors: s.color, Spilled: s.res.Spilled[:0]}
	for s.nProcessed < ctx.Graph.NumWebs() {
		n := s.chooseNode()
		lacks := false
		if s.shouldActivelySpill(n) {
			w.active++
		} else {
			avail := s.regRow(rowAvail)
			s.availRow(avail, n)
			lacks = bitset.Next(avail, 0) < 0
			if lacks && s.isSpillTemp(n) {
				w.evictions++
				lacks = false
			}
		}
		s.processNode(n, &s.res)
		if lacks && !s.ord.potential[n] {
			w.nonPotential++
			if s.ord.phys[n] == 0 {
				w.noPhys++
			}
		}
	}
	if len(s.res.Spilled) == 0 {
		s.recolorFixup()
	}
	return &s.res, nil
}

// TestUnmarkedSpillsHavePhysicalNeighbors pins why the CPG order
// spills more than stack order. Some webs that simplify did not mark
// potential spills still find no register in selection, and each has a
// physical neighbor: readiness (lim, preds) counts web neighbors only,
// while removal counts physical ones too, so up to k-1 web neighbors
// can be colored before such a web, and with its physical neighbors
// they can hold every register. No active spill and no eviction for a
// spill temporary plays a part.
func TestUnmarkedSpillsHavePhysicalNeighbors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases []hookCase
	}{
		{"large k=16", largeCases()},
		{"suite k=16,24,32", suiteCases(16, 24, 32)},
	} {
		w := &spillWatcher{a: New()}
		for _, c := range tc.cases {
			if _, _, err := regalloc.Run(c.f, c.m, w, regalloc.Options{}); err != nil {
				t.Fatalf("%s: %s: %v", tc.name, c.f.Name, err)
			}
		}
		t.Logf("%s: %d webs spilled for want of a register without a potential-spill mark; %d active spills, %d evictions",
			tc.name, w.nonPotential, w.active, w.evictions)
		if w.noPhys != 0 {
			t.Errorf("%s: %d of them have no physical neighbor", tc.name, w.noPhys)
		}
		if w.active != 0 || w.evictions != 0 {
			t.Errorf("%s: %d active spills and %d evictions, want none", tc.name, w.active, w.evictions)
		}
	}
}
