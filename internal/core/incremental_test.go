package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"prefcolor/internal/ig"
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

// TestRecolorCountsMatchRecount checks the recolor fixup's neighbor-
// color counts against a from-scratch recount after every recolorTo,
// over every round of pref-full and pref-coalesce on the nine profiles
// at k = 16 and 32.
func TestRecolorCountsMatchRecount(t *testing.T) {
	recolors := 0
	for _, k := range []int{16, 32} {
		m := target.UsageModel(k)
		for _, p := range workload.Benchmarks() {
			for _, f := range workload.Generate(p, m) {
				for _, alloc := range []*Allocator{New(), NewCoalesceOnly()} {
					ws := regalloc.NewWorkspace()
					cs := &coreScratch{}
					ws.SetAllocatorScratch(cs)
					s := &cs.sel
					s.rcHook = func() {
						recolors++
						g := s.ctx.Graph
						for n := 0; n < g.NumNodes(); n++ {
							want := make([]int32, k)
							g.ForEachOrigNeighbor(ig.NodeID(n), func(nb ig.NodeID) {
								if c := s.colorOf(nb); c >= 0 && c < k {
									want[c]++
								}
							})
							if got := s.nbCounts(ig.NodeID(n)); !slices.Equal(got, want) {
								t.Fatalf("%s/%s k=%d: node %d counts %v, recount %v", alloc.Name(), f.Name, k, n, got, want)
							}
						}
					}
					if _, _, err := regalloc.Run(f, m, alloc, regalloc.Options{Workspace: ws}); err != nil {
						t.Fatalf("%s/%s: %v", alloc.Name(), f.Name, err)
					}
				}
			}
		}
	}
	if recolors == 0 {
		t.Fatal("no recoloring happened; the check saw nothing")
	}
	t.Logf("%d recolorings checked", recolors)
}

// TestColorFreeForMatchesRef compares the count-based colorFreeFor with
// the occupancy-bitset colorFreeForRef on the final coloring of every
// nine-profile function at k = 16, over random queries whose plans
// may move a neighbor that wears the queried color away — a case the
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
			s.buildColorRows()
			g := s.ctx.Graph
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
					if nb := nbs[rng.Intn(len(nbs))]; !g.IsPhys(nb) && s.color[nb] >= 0 {
						if _, ok := plan.lookup(nb); !ok {
							c = s.color[nb]
							plan.add(nb, rng.Intn(k))
						}
					}
				}
				for _, pl := range []*planOverlay{nil, plan} {
					if got, want := s.colorFreeFor(n, c, pl), s.colorFreeForRef(n, c, pl); got != want {
						t.Fatalf("%s: colorFreeFor(%d, %d, %v) = %v, reference %v", f.Name, n, c, pl, got, want)
					}
				}
			}
		}
	}
}
