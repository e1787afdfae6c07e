package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"time"

	"prefcolor"
	"prefcolor/internal/bench"
	"prefcolor/internal/cfg"
	"prefcolor/internal/costmodel"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
	"prefcolor/internal/workload"
)

// compileItem is one function of a compile workload and the machine it
// is allocated for.
type compileItem struct {
	f *ir.Func
	m *target.Machine
}

// compileCorpus generates a compile workload's functions: the large
// stress profile at k = 16, or the nine paper profiles at k = 16, 24
// and 32. The profiles keep their fixed seeds (README, "Seeds").
func compileCorpus(name string, small bool) []compileItem {
	var items []compileItem
	add := func(p workload.Profile, m *target.Machine) {
		if small {
			p.Funcs = min(p.Funcs, 2)
		}
		for _, f := range workload.Generate(p, m) {
			items = append(items, compileItem{f, m})
		}
	}
	if name == "compile-large" {
		add(workload.Large(), prefcolor.NewMachine(16))
		return items
	}
	for _, k := range []int{16, 24, 32} {
		m := prefcolor.NewMachine(k)
		for _, p := range prefcolor.Benchmarks() {
			add(p, m)
		}
	}
	return items
}

// allocation is one completed allocation of a corpus function.
type allocation struct {
	out   *ir.Func
	stats *regalloc.Stats
}

// allocate is the measured call: pref-full through the public facade
// on the run's one reused workspace.
func allocate(it compileItem, ws *prefcolor.Workspace) (allocation, error) {
	out, st, err := prefcolor.AllocateOpts(it.f, it.m, prefcolor.PreferenceDirected(), prefcolor.Options{Workspace: ws})
	return allocation{out, st}, err
}

// runCompile runs compile-large or compile-suite: one goroutine
// allocating the corpus in a closed loop, in a fresh seeded order each
// pass. A traced run alternates untraced slices with slices that
// replay the driver's round loop call by call.
func runCompile(name string, o options) (*result, *tracer, error) {
	rng := rand.New(rand.NewSource(o.seed))
	vs := values{}

	var items []compileItem
	var ws *prefcolor.Workspace
	var warm []allocation
	var setups []float64
	for range setupReps {
		t0 := time.Now()
		items = compileCorpus(name, o.small)
		ws = prefcolor.NewWorkspace()
		warm = make([]allocation, len(items))
		for _, i := range rng.Perm(len(items)) {
			a, err := allocate(items[i], ws)
			if err != nil {
				return nil, nil, fmt.Errorf("warm-up %s: %w", items[i].f.Name, err)
			}
			warm[i] = a
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	_, med, _ := quartiles(setups)
	vs.set("setup_s", med, len(setups))

	// Quality of the outputs: sums over the warm-up pass, in corpus
	// order so the float total is the same whatever the pick order.
	var cycles float64
	var spills, moves int
	for i, a := range warm {
		cycles += prefcolor.EstimateCycles(a.out, items[i].m).Cycles
		spills += a.stats.SpillInstrs()
		moves += a.stats.MovesRemaining
	}
	vs.set("est_cycles", cycles, len(warm))
	vs.set("spill_instrs", float64(spills), len(warm))
	vs.set("moves_remaining", float64(moves), len(warm))

	// last[0] holds each function's latest untraced output and last[1]
	// its latest replayed one; the checks compare both with the oracle.
	last := [2][]allocation{warm, make([]allocation, len(items))}
	var tr *tracer
	var rp *replayer
	if o.trace {
		tr = newTracer()
		rp = &replayer{tr: tr, ws: prefcolor.NewWorkspace()}
	}
	var (
		lat               []float64
		ok                [2]int
		wall              [2]time.Duration
		attempted, failed int
	)
	order, pos := rng.Perm(len(items)), 0
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	sl := traceSlices{start, o.trace}
	for prev := start; prev.Sub(start) < o.seconds; {
		if pos == len(order) {
			order, pos = rng.Perm(len(items)), 0
		}
		i := order[pos]
		pos++
		mode := 0
		if sl.traced(prev) {
			mode = 1
		}
		t0 := time.Now()
		var a allocation
		var err error
		if mode == 0 {
			a, err = allocate(items[i], ws)
		} else {
			a, err = rp.allocate(int64(attempted+1), items[i])
		}
		end := time.Now()
		// Each call's wall, bookkeeping included, goes to its slice
		// kind, so traced wall counts exactly the replayed calls.
		wall[mode] += end.Sub(prev)
		prev = end
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "prefbench: %s: %s: %v\n", name, items[i].f.Name, err)
			continue
		}
		ok[mode]++
		if mode == 0 {
			lat = append(lat, ms(end.Sub(t0)))
		}
		last[mode][i] = a
	}
	rt1 := readRuntime()
	elapsed := wall[0] + wall[1]

	funcsPerS := [2]float64{ratio(float64(ok[0]), wall[0].Seconds()), ratio(float64(ok[1]), wall[1].Seconds())}
	vs.set("funcs_per_s", funcsPerS[0], ok[0])
	vs.set("latency_ms_p50", percentile(lat, 0.50), len(lat))
	vs.set("latency_ms_p99", percentile(lat, 0.99), len(lat))
	vs.set("ok_frac", ratio(float64(ok[0]+ok[1]), float64(attempted)), attempted)
	vs.set("full_tier_frac", 1, ok[0]+ok[1])
	recordRuntime(vs, rt0, rt1, elapsed.Seconds(), ok[0]+ok[1])
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	vs.set("peak_rss_mb", rss, 1)
	if o.trace {
		rp.record(vs, wall[1], ok[1])
		vs.set("trace.overhead_frac", 1-ratio(funcsPerS[1], funcsPerS[0]), ok[1])
	}

	// Output check: every function again through the validity oracle;
	// its digest must equal the measured outputs' digests.
	checked, mismatches := 0, 0
	for i, it := range items {
		out, st, err := regalloc.RunChecked(it.f, it.m, prefcolor.PreferenceDirected(), regalloc.Options{})
		want := ""
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: oracle %s: %v\n", name, it.f.Name, err)
		} else {
			want = bench.FuncDigest(it.f.Name, st, out)
		}
		for mode, l := range last {
			if l[i].out == nil {
				continue
			}
			checked++
			if got := bench.FuncDigest(it.f.Name, l[i].stats, l[i].out); got != want {
				mismatches++
				fmt.Fprintf(os.Stderr, "prefbench: %s: %s: digest %.12s, oracle %.12s (traced=%v)\n",
					name, it.f.Name, got, want, mode == 1)
			}
		}
	}
	r, err := finish(name, o.trace, vs, attempted, failed, checked, mismatches)
	return r, tr, err
}

// maxRounds is regalloc.Run's default spill-round limit.
const maxRounds = 16

// corePhases are the allocator's telemetry phases that split
// core.allocate, in the order core.Allocator runs them.
var corePhases = []struct {
	name  string
	phase telemetry.Phase
}{
	{"core.rpg", telemetry.PhaseRPG},
	{"core.simplify", telemetry.PhaseSimplify},
	{"core.cpg", telemetry.PhaseCPG},
	{"core.select", telemetry.PhaseSelect},
	{"core.recolor", telemetry.PhaseRecolor},
}

// replayer re-runs regalloc.Run's round loop (default options) one
// public call at a time, timing each call as a span. Its output must
// equal Run's bit for bit, which the output check verifies.
type replayer struct {
	tr     *tracer
	ws     *regalloc.Workspace // holds only the allocator's own scratch
	ren    ig.RenumberScratch
	live   liveness.Scratch
	graph  ig.GraphScratch
	colors []int

	rounds, webs, edges int
	tel                 telemetry.Snapshot
}

// span records a layer span from start to now and returns now, the
// next span's start, so consecutive calls leave no gap.
func (r *replayer) span(name string, start time.Time, req int64) time.Time {
	end := time.Now()
	r.tr.add(name, start, end, 0, req)
	return end
}

func (r *replayer) allocate(req int64, it compileItem) (allocation, error) {
	alloc := prefcolor.PreferenceDirected()
	m := it.m
	t := time.Now()
	err := regalloc.ValidateInput(it.f, m)
	t = r.span("regalloc.validate_input", t, req)
	if err != nil {
		return allocation{}, err
	}
	f := it.f.Clone()
	stats := &regalloc.Stats{Allocator: alloc.Name(), MovesBefore: f.CountOp(ir.Move)}
	tempRegs := map[ir.Reg]bool{}
	t = r.span("ir.clone", t, req)
	for round := 1; round <= maxRounds; round++ {
		info, err := ig.RenumberInto(f, &r.ren)
		if err != nil {
			return allocation{}, err
		}
		spillTemp := make([]bool, info.NumWebs)
		for w, origins := range info.Origins {
			for _, o := range origins {
				if tempRegs[o] {
					spillTemp[w] = true
				}
			}
		}
		t = r.span("ig.renumber", t, req)
		loops := cfg.FindLoops(f, cfg.NewDomTree(f))
		t = r.span("cfg.analyze", t, req)
		live := liveness.ComputeInto(f, &r.live)
		t = r.span("liveness.compute", t, req)
		costs := costmodel.Analyze(f, m, loops, live)
		t = r.span("costmodel.analyze", t, req)
		g, err := ig.BuildInto(&r.graph, f, m, loops, live)
		if err != nil {
			return allocation{}, err
		}
		for w := 0; w < f.NumVirt; w++ {
			c := costs.MemCost(w)
			if spillTemp[w] {
				c = regalloc.InfiniteCost
			}
			g.SetSpillCost(g.NodeOf(ir.Virt(w)), c)
		}
		r.span("ig.build", t, req)
		r.countGraph(g)

		ctx := &regalloc.Context{
			F: f, Machine: m, Graph: g, Loops: loops, Live: live, Costs: costs,
			SpillTemp: spillTemp, Workspace: r.ws, Telemetry: telemetry.New(nil),
		}
		t = time.Now()
		res, err := alloc.Allocate(ctx)
		end := time.Now()
		r.coreSpans(t, end, req, ctx.Telemetry.Snapshot())
		t = end
		if err != nil {
			return allocation{}, err
		}
		err = regalloc.CheckResult(ctx, res)
		t = r.span("regalloc.check_result", t, req)
		if err != nil {
			return allocation{}, err
		}
		stats.Rounds = round
		r.rounds++
		if len(res.Spilled) == 0 {
			if cap(r.colors) < f.NumVirt {
				r.colors = make([]int, f.NumVirt)
			}
			r.colors = r.colors[:f.NumVirt]
			for w := range r.colors {
				c, ok := res.ColorOf(g, g.NodeOf(ir.Virt(w)))
				if !ok {
					return allocation{}, fmt.Errorf("web v%d has no color at rewrite", w)
				}
				r.colors[w] = c
			}
			out, err := regalloc.RewriteColored(f, m, live, r.colors, stats)
			r.span("regalloc.rewrite", t, req)
			return allocation{out, stats}, err
		}
		webs := expandSpills(g, res.Spilled)
		stats.SpilledWebs += len(webs)
		clear(tempRegs)
		for w, isTemp := range spillTemp {
			if isTemp {
				tempRegs[ir.Virt(w)] = true
			}
		}
		for _, tmp := range regalloc.InsertSpillEverywhere(f, webs) {
			tempRegs[tmp] = true
		}
		t = r.span("regalloc.spill", t, req)
	}
	return allocation{}, fmt.Errorf("%s did not converge in %d rounds", alloc.Name(), maxRounds)
}

// coreSpans records core.allocate and its telemetry phases as child
// spans. Telemetry gives each phase's duration, not its position, so
// the children are laid end to end from the parent's start in the
// order the allocator runs them.
func (r *replayer) coreSpans(start, end time.Time, req int64, snap *telemetry.Snapshot) {
	parent := r.tr.add("core.allocate", start, end, 0, req)
	at := start
	for _, p := range corePhases {
		next := at.Add(snap.Phases[p.phase].Wall)
		r.tr.add(p.name, at, next, parent, req)
		at = next
	}
	r.tel.Merge(snap)
}

// countGraph tallies one round's webs and interference edges.
func (r *replayer) countGraph(g *ig.Graph) {
	r.webs += g.NumWebs()
	deg := 0
	for n := range g.NumNodes() {
		for _, w := range g.OrigRow(ig.NodeID(n)) {
			deg += bits.OnesCount64(w)
		}
	}
	r.edges += deg / 2
}

// record sets the per-layer metrics of a traced run whose traced slices
// took wall and completed funcs allocations.
func (r *replayer) record(vs values, wall time.Duration, funcs int) {
	self, _ := r.tr.layerTimes()
	var attributed time.Duration
	for _, l := range pipelineLayers {
		vs.set(l+".ms", ratio(ms(self[l]), float64(funcs)), funcs)
		vs.set(l+".share", ratio(float64(self[l]), float64(wall)), funcs)
		attributed += self[l]
	}
	vs.set("trace.attributed_frac", ratio(float64(attributed), float64(wall)), len(r.tr.spans))
	perFunc := func(x float64) float64 { return ratio(x, float64(funcs)) }
	vs.set("regalloc.rounds_per_func", perFunc(float64(r.rounds)), funcs)
	vs.set("ig.webs_per_round", ratio(float64(r.webs), float64(r.rounds)), r.rounds)
	vs.set("ig.edges_per_round", ratio(float64(r.edges), float64(r.rounds)), r.rounds)
	vs.set("core.selections_per_func", perFunc(float64(r.tel.Selections)), funcs)
	vs.set("core.select_spills_per_func", perFunc(float64(r.tel.SelectSpills)), funcs)
	vs.set("core.recolors_per_func", perFunc(float64(r.tel.Recolors)), funcs)
	var honored, broken int64
	for c := range r.tel.Prefs {
		honored += r.tel.Prefs[c][telemetry.Honored]
		broken += r.tel.Prefs[c][telemetry.Broken]
	}
	vs.set("core.prefs_honored_frac", ratio(float64(honored), float64(honored+broken)), int(honored+broken))
}

// expandSpills is regalloc's unexported helper of the same name,
// copied so the replay inserts spill code for the same webs in the same
// order: a spilled coalescing representative expands to its members.
func expandSpills(g *ig.Graph, spilled []ig.NodeID) []int {
	seen := map[int]bool{}
	var out []int
	add := func(n ig.NodeID) {
		if g.IsPhys(n) {
			return
		}
		w := int(n) - g.NumPhys()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, s := range spilled {
		if ms := g.Members(s); len(ms) > 0 {
			for _, m := range ms {
				add(m)
			}
		} else {
			add(s)
		}
	}
	return out
}
