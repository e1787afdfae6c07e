package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// TestReadyHeapMatchesArgmax drives the indexed ready heap through
// random push, raise, lower, equal-update and remove sequences over a
// small priority alphabet (so ties are common, -Inf included), and
// after every step requires its root to be the argmax of the present
// nodes with ties to the lowest id, and every position index to point
// at its node.
func TestReadyHeapMatchesArgmax(t *testing.T) {
	levels := []float64{math.Inf(-1), -1, 0, 0.5, 1, 2, 7}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		s := &selector{
			priVal:  make([]float64, n),
			heapPos: make([]int32, n),
		}
		for i := range s.heapPos {
			s.heapPos[i] = -1
		}
		present := func() []ig.NodeID {
			var out []ig.NodeID
			for i := range n {
				if s.heapPos[i] >= 0 {
					out = append(out, ig.NodeID(i))
				}
			}
			return out
		}
		level := func(v float64) int { return slices.Index(levels, v) }
		for step := 0; step < 400; step++ {
			in := present()
			op := rng.Intn(5)
			switch {
			case len(in) == 0 || op == 0 && len(in) < n:
				var v ig.NodeID
				for v = ig.NodeID(rng.Intn(n)); s.heapPos[v] >= 0; v = (v + 1) % n {
				}
				s.priVal[v] = levels[rng.Intn(len(levels))]
				s.heapPush(v)
			case op == 1 || op == 0: // raise
				v := in[rng.Intn(len(in))]
				if l := level(s.priVal[v]); l < len(levels)-1 {
					s.priVal[v] = levels[l+1+rng.Intn(len(levels)-1-l)]
				}
				s.heapFix(v)
			case op == 2: // lower
				v := in[rng.Intn(len(in))]
				if l := level(s.priVal[v]); l > 0 {
					s.priVal[v] = levels[rng.Intn(l)]
				}
				s.heapFix(v)
			case op == 3: // equal update
				s.heapFix(in[rng.Intn(len(in))])
			default:
				s.heapRemove(in[rng.Intn(len(in))])
			}

			in = present()
			if len(in) != len(s.heap) {
				t.Fatalf("seed %d step %d: heap holds %d entries, %d nodes indexed", seed, step, len(s.heap), len(in))
			}
			for i, v := range s.heap {
				if int(s.heapPos[v]) != i {
					t.Fatalf("seed %d step %d: heapPos[%d] = %d, entry at %d", seed, step, v, s.heapPos[v], i)
				}
			}
			if len(in) == 0 {
				continue
			}
			best := in[0]
			for _, v := range in[1:] {
				if s.priVal[v] > s.priVal[best] {
					best = v
				}
			}
			if s.heap[0] != best {
				t.Fatalf("seed %d step %d: root %d (pri %v), argmax %d (pri %v)",
					seed, step, s.heap[0], s.priVal[s.heap[0]], best, s.priVal[best])
			}
		}
	}
}

// hookCase is one function allocated on one machine.
type hookCase struct {
	f *ir.Func
	m *target.Machine
}

// suiteCases lists the nine profiles' functions at each k.
func suiteCases(ks ...int) []hookCase {
	var cases []hookCase
	for _, k := range ks {
		m := target.UsageModel(k)
		for _, p := range workload.Benchmarks() {
			for _, f := range workload.Generate(p, m) {
				cases = append(cases, hookCase{f, m})
			}
		}
	}
	return cases
}

// largeCases lists Large's functions at k = 16.
func largeCases() []hookCase {
	m := target.UsageModel(16)
	var cases []hookCase
	for _, f := range workload.Generate(workload.Large(), m) {
		cases = append(cases, hookCase{f, m})
	}
	return cases
}

// fuzzCases lists workload.Fuzz() seeds 1–200 at each k.
func fuzzCases(ks ...int) []hookCase {
	var cases []hookCase
	for _, k := range ks {
		m := target.UsageModel(k)
		for seed := int64(1); seed <= 200; seed++ {
			cases = append(cases, hookCase{workload.GenerateRawFunc(workload.Fuzz(), m, seed), m})
		}
	}
	return cases
}

// runHooked allocates every case with a fresh allocator from newAlloc
// on its own workspace, calling install on the workspace's selector
// before the run (where tests set their hooks) and, when after is not
// nil, after it on the final round's state. With spillFixup set, the
// recolor fixup also runs on spilling rounds (fixupOnSpill), so the
// fixup checks below see every round, not only the final one.
func runHooked(t *testing.T, cases []hookCase, newAlloc func() *Allocator, spillFixup bool, install, after func(*selector)) {
	t.Helper()
	for _, c := range cases {
		ws := regalloc.NewWorkspace()
		cs := &coreScratch{}
		ws.SetAllocatorScratch(cs)
		install(&cs.sel)
		a := newAlloc()
		var alloc regalloc.Allocator = a
		if spillFixup {
			alloc = &fixupOnSpill{Allocator: a, t: t}
		}
		if _, _, err := regalloc.Run(c.f, c.m, alloc, regalloc.Options{Workspace: ws}); err != nil {
			t.Fatalf("%s/%s k=%d: %v", alloc.Name(), c.f.Name, c.m.NumRegs, err)
		}
		if after != nil {
			after(&cs.sel)
		}
	}
}

// TestRecolorCountsMatchRecount checks the recolor fixup's built
// neighbor-color count rows against a from-scratch recount, and each
// built free-color row against its counts (bit c set exactly when count
// c is zero, no bit at or above k), after every recolorTo, over every
// round of pref-full and pref-coalesce on the nine profiles at k = 16
// and 32, spilling rounds included.
func TestRecolorCountsMatchRecount(t *testing.T) {
	recolors, rows := 0, 0
	cases := suiteCases(16, 32)
	for _, newAlloc := range []func() *Allocator{New, NewCoalesceOnly} {
		runHooked(t, cases, newAlloc, true, func(s *selector) {
			s.rcHook = func() {
				recolors++
				g, k := s.ctx.Graph, s.ctx.K()
				for n := ig.NodeID(0); int(n) < g.NumNodes(); n++ {
					if !s.rcRowOK[n] {
						continue
					}
					rows++
					want := make([]int32, k)
					g.ForEachOrigNeighbor(n, func(nb ig.NodeID) {
						if c := s.colorOf(nb); c >= 0 && c < k {
							want[c]++
						}
					})
					if got := s.nbCounts(n); !slices.Equal(got, want) {
						t.Fatalf("%s k=%d: node %d counts %v, recount %v", s.ctx.F.Name, k, n, got, want)
					}
					row := s.freeRow(n)
					for c, cnt := range want {
						if bitset.Has(row, c) != (cnt == 0) {
							t.Fatalf("%s k=%d: node %d color %d: free bit %v, count %d", s.ctx.F.Name, k, n, c, bitset.Has(row, c), cnt)
						}
					}
					if bitset.Next(row, k) >= 0 {
						t.Fatalf("%s k=%d: node %d has a free bit at or above k", s.ctx.F.Name, k, n)
					}
				}
			}
		}, nil)
	}
	if recolors == 0 || rows == 0 {
		t.Fatal("no recoloring happened; the check saw nothing")
	}
	t.Logf("%d recolorings checked, %d built rows compared", recolors, rows)
}

// TestForbidSkipExact recomputes the priority of every ready neighbor
// whose newly forbidden register forbidMatters judged harmless, and
// requires it bit-equal to the cached priVal, over pref-full and
// pref-coalesce on the nine profiles at k = 16/24/32, Large at k = 16,
// and workload.Fuzz() seeds 1–200 at k = 4 and 8. It logs how many
// ready neighbors each corpus refreshed and how many of them needed a
// recompute.
func TestForbidSkipExact(t *testing.T) {
	corpora := []struct {
		name  string
		cases []hookCase
	}{
		{"suite", suiteCases(16, 24, 32)},
		{"large", largeCases()},
		{"fuzz", fuzzCases(4, 8)},
	}
	for _, corpus := range corpora {
		for _, newAlloc := range []func() *Allocator{New, NewCoalesceOnly} {
			var skipped, recomputed int
			runHooked(t, corpus.cases, newAlloc, false, func(s *selector) {
				s.forbidHook = func(nb ig.NodeID, skip bool) {
					if !skip {
						recomputed++
						return
					}
					skipped++
					if got, want := s.priority(nb), s.priVal[nb]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s k=%d: skipped node %d: priority %v, cached %v", s.ctx.F.Name, s.ctx.K(), nb, got, want)
					}
				}
			}, nil)
			if skipped == 0 {
				t.Fatalf("%s: no refresh was skipped; the check saw nothing", corpus.name)
			}
			n := float64(len(corpus.cases))
			t.Logf("%s/%s: %.1f ready neighbors refreshed per function, %.1f recomputed",
				corpus.name, newAlloc().Name(), float64(skipped+recomputed)/n, float64(recomputed)/n)
		}
	}
}

// TestComponentPlanScoreMatches builds every component plan the recolor
// fixup can score — each copy component of 3 to maxCompPlan colored
// members, each color below k — after every recolorTo and on each
// run's final state, and requires each plan of two or more nodes to
// pass planDelta's validation with a delta bit-equal to planGain's,
// over every round, spilling rounds included, of pref-full on the nine
// profiles at k = 16/24/32 and Large.
func TestComponentPlanScoreMatches(t *testing.T) {
	plans := 0
	check := func(s *selector) {
		g, k := s.ctx.Graph, s.ctx.K()
		plan := &planOverlay{}
		for r := g.NumPhys(); r < g.NumNodes(); r++ {
			if s.compOf(ig.NodeID(r)) != int32(r) {
				continue
			}
			members := s.compMembers(ig.NodeID(r))
			if len(members) <= 2 || len(members) > maxCompPlan {
				continue
			}
			for _, m := range members {
				s.ensureRows(m)
			}
			for c := 0; c < k; c++ {
				s.componentPlan(members, c, plan)
				if plan.len() < 2 {
					continue
				}
				plans++
				gain := s.planGain(plan)
				delta, ok := s.planDelta(plan)
				if !ok || math.Float64bits(delta) != math.Float64bits(gain) {
					t.Fatalf("%s k=%d: component %d color %d: planDelta (%v, %v), planGain %v", s.ctx.F.Name, k, r, c, delta, ok, gain)
				}
			}
		}
	}
	cases := append(suiteCases(16, 24, 32), largeCases()...)
	runHooked(t, cases, New, true, func(s *selector) {
		s.rcHook = func() { check(s) }
	}, check)
	if plans == 0 {
		t.Fatal("no component plan was built; the check saw nothing")
	}
	t.Logf("%d component plans checked", plans)
}

// fixupOnSpill allocates with its Allocator and, on every round that
// spills, runs the recolor fixup that selection skipped there (unless
// the ablation drops the fixup). It requires the fixup to keep the
// spill set, all the driver reads of such a round, and CheckResult's
// verdict on the round; the driver's own CheckResult then sees the
// fixed-up colors. The round's Colors are the selector's color array,
// so they show the fixup's recolorings.
type fixupOnSpill struct {
	*Allocator
	t       testing.TB
	rounds  int // spilling rounds checked
	changed int // of them, rounds whose colors the fixup changed
}

func (a *fixupOnSpill) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	res, err := a.Allocator.Allocate(ctx)
	if err != nil || len(res.Spilled) == 0 || a.ablation.NoRecolor {
		return res, err
	}
	a.rounds++
	before := regalloc.CheckResult(ctx, res)
	spilled, colors := slices.Clone(res.Spilled), slices.Clone(res.Colors)
	coreScratchFor(ctx).sel.recolorFixup()
	if !slices.Equal(res.Spilled, spilled) {
		a.t.Fatalf("%s/%s k=%d: the fixup changed the spill set %v to %v", a.Name(), ctx.F.Name, ctx.K(), spilled, res.Spilled)
	}
	if after := regalloc.CheckResult(ctx, res); fmt.Sprint(after) != fmt.Sprint(before) {
		a.t.Fatalf("%s/%s k=%d: CheckResult gave %v without the fixup, %v with it", a.Name(), ctx.F.Name, ctx.K(), before, after)
	}
	if !slices.Equal(res.Colors, colors) {
		a.changed++
	}
	return res, nil
}

// TestSpillRoundFixupKeepsSpills shows that skipping the recolor fixup
// on spilling rounds is exact: on every spilling round of pref-full and
// pref-coalesce over the nine profiles at k = 16/24/32, Large at k = 16
// and workload.Fuzz() seeds 1–200 at k = 4 and 8, running the fixup
// leaves the spill set unchanged and CheckResult passing.
func TestSpillRoundFixupKeepsSpills(t *testing.T) {
	corpora := []struct {
		name  string
		cases []hookCase
	}{
		{"suite", suiteCases(16, 24, 32)},
		{"large", largeCases()},
		{"fuzz", fuzzCases(4, 8)},
	}
	changed := 0
	for _, corpus := range corpora {
		for _, newAlloc := range []func() *Allocator{New, NewCoalesceOnly} {
			a := &fixupOnSpill{Allocator: newAlloc(), t: t}
			for _, c := range corpus.cases {
				if _, _, err := regalloc.Run(c.f, c.m, a, regalloc.Options{}); err != nil {
					t.Fatalf("%s/%s k=%d: %v", a.Name(), c.f.Name, c.m.NumRegs, err)
				}
			}
			changed += a.changed
			t.Logf("%s/%s: %d spilling rounds, %d recolored by the fixup", corpus.name, a.Name(), a.rounds, a.changed)
		}
	}
	if changed == 0 {
		t.Fatal("the fixup changed no spilling round's colors; the check saw nothing")
	}
}

// TestColorFreeForMatchesRef compares the count-based colorFreeFor with
// the reference selector's neighbor walk on the final coloring of every
// nine-profile function at k = 16, over random queries whose plans may
// move a neighbor that wears the queried color away — a case the
// recolor plans themselves never build.
func TestColorFreeForMatchesRef(t *testing.T) {
	m := target.UsageModel(16)
	k := m.NumRegs
	rng := rand.New(rand.NewSource(1))
	for _, p := range workload.Benchmarks() {
		for _, f := range workload.Generate(p, m) {
			ws := regalloc.NewWorkspace()
			cs := &coreScratch{}
			ws.SetAllocatorScratch(cs)
			if _, _, err := regalloc.Run(f, m, New(), regalloc.Options{Workspace: ws}); err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			s := &cs.sel
			ref := newRefSelector(s.ctx, &cs.rpg, FullPreferences, Ablation{})
			copy(ref.color, s.color)
			g := s.ctx.Graph
			for n := 0; n < g.NumNodes(); n++ {
				s.ensureRows(ig.NodeID(n))
			}
			var colored []ig.NodeID
			for n := g.NumPhys(); n < g.NumNodes(); n++ {
				if s.color[n] >= 0 {
					colored = append(colored, ig.NodeID(n))
				}
			}
			if len(colored) < 4 {
				continue
			}
			plan := &planOverlay{}
			for q := 0; q < 200; q++ {
				n, c := colored[rng.Intn(len(colored))], rng.Intn(k)
				plan.nodes, plan.colors = plan.nodes[:0], plan.colors[:0]
				for _, i := range rng.Perm(len(colored))[:rng.Intn(4)] {
					if colored[i] != n {
						plan.add(colored[i], rng.Intn(k))
					}
				}
				// Half the queries ask for a color a colored neighbor
				// wears, and the plan moves that neighbor.
				if nbs := g.OrigNeighbors(n); rng.Intn(2) == 0 && len(nbs) > 0 {
					if nb := nbs[rng.Intn(len(nbs))]; !g.IsPhys(nb) && s.color[nb] >= 0 && !slices.Contains(plan.nodes, nb) {
						c = s.color[nb]
						plan.add(nb, rng.Intn(k))
					}
				}
				var refPlan []refMove
				for i, pn := range plan.nodes {
					refPlan = append(refPlan, refMove{pn, plan.colors[i]})
				}
				if got, want := s.colorFreeFor(n, c, nil), ref.colorFree(n, c, nil); got != want {
					t.Fatalf("%s: colorFreeFor(%d, %d, no plan) = %v, reference %v", f.Name, n, c, got, want)
				}
				if got, want := s.colorFreeFor(n, c, plan), ref.colorFree(n, c, refPlan); got != want {
					t.Fatalf("%s: colorFreeFor(%d, %d, %v) = %v, reference %v", f.Name, n, c, plan, got, want)
				}
			}
		}
	}
}
