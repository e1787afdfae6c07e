package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// The reference selector: §5.3 selection and the recolor fixup written
// the plain way, as the test oracle the incremental selector must match
// exactly. It shares no state with selector and keeps no caches. It
// rescans the ready nodes and recomputes every priority at each pop,
// builds each available set from a neighbor walk, tests honoring one
// register at a time, and in the fixup retries every unhonored move in
// every pass and validates every plan by a neighbor walk. The real
// selector's heap, forbid masks, skipped refreshes and recolor caches
// have no counterpart here, so a fault in any of them shows as a
// different coloring.

// refSelector is one round of the reference selection.
type refSelector struct {
	ctx  *regalloc.Context
	g    *ig.Graph
	m    *target.Machine
	k    int
	rpg  *RPG
	mode Mode
	ab   Ablation

	nbrs    [][]ig.NodeID // original-graph neighbors, ascending
	color   []int         // physical nodes wear their own id
	spilled []bool
	done    []bool
	ready   []bool
	preds   []int   // unprocessed real CPG predecessors
	comp    []int   // copy-component union-find parents
	grants  [][]int // per component root, registers below k granted in it

	spills   []ig.NodeID
	recolors int // nodes the fixup recolored
}

// refMove is one planned recoloring: node n to color c.
type refMove struct {
	n ig.NodeID
	c int
}

// newRefSelector readies the reference over the round's context and
// RPG: no web colored, every physical node on its own register.
func newRefSelector(ctx *regalloc.Context, rpg *RPG, mode Mode, ab Ablation) *refSelector {
	g := ctx.Graph
	n := g.NumNodes()
	r := &refSelector{
		ctx: ctx, g: g, m: ctx.Machine, k: ctx.K(), rpg: rpg, mode: mode, ab: ab,
		nbrs:    make([][]ig.NodeID, n),
		color:   make([]int, n),
		spilled: make([]bool, n),
		done:    make([]bool, n),
		ready:   make([]bool, n),
		preds:   make([]int, n),
		comp:    make([]int, n),
		grants:  make([][]int, n),
	}
	for i := range n {
		r.nbrs[i] = g.OrigNeighbors(ig.NodeID(i))
		r.color[i] = -1
		r.comp[i] = i
	}
	for _, mv := range g.Moves() {
		if !g.OrigInterferes(mv.X, mv.Y) {
			r.comp[r.find(int(mv.Y))] = r.find(int(mv.X))
		}
	}
	for i := range g.NumPhys() {
		r.color[i] = i
		r.grant(ig.NodeID(i), i)
	}
	return r
}

// referenceSelect runs the reference over one round: selection over
// the CPG, then the recolor fixup unless the ablation drops it or the
// round spilled and fixupOnSpill is not set.
func referenceSelect(ctx *regalloc.Context, rpg *RPG, cpg *CPG, mode Mode, ab Ablation, fixupOnSpill bool) (*refSelector, error) {
	r := newRefSelector(ctx, rpg, mode, ab)
	nodes := cpg.Nodes()
	for _, n := range nodes {
		for _, s := range cpg.Succs(n) {
			if s >= 0 {
				r.preds[s]++
			}
		}
	}
	for _, n := range nodes {
		r.ready[n] = r.preds[n] == 0
	}
	for processed := 0; processed < r.g.NumWebs(); processed++ {
		n := r.pick()
		if n < 0 {
			return nil, fmt.Errorf("reference: CPG traversal stuck with %d of %d nodes processed", processed, r.g.NumWebs())
		}
		r.process(n, cpg)
	}
	if !ab.NoRecolor && (len(r.spills) == 0 || fixupOnSpill) {
		r.recolorFixup()
	}
	return r, nil
}

func (r *refSelector) find(x int) int {
	for r.comp[x] != x {
		r.comp[x] = r.comp[r.comp[x]]
		x = r.comp[x]
	}
	return x
}

// grant records that n's copy component received register c.
func (r *refSelector) grant(n ig.NodeID, c int) {
	if c >= r.k {
		return
	}
	root := r.find(int(n))
	if r.grants[root] == nil {
		r.grants[root] = make([]int, r.k)
	}
	r.grants[root][c]++
}

// pick scans the ready nodes in ascending order and returns the first
// with the largest priority, each recomputed from scratch; under the
// FIFO ablation, the first ready node. -1 when none is ready.
func (r *refSelector) pick() ig.NodeID {
	best, bestPri := ig.NodeID(-1), math.Inf(-1)
	for i, ok := range r.ready {
		if !ok {
			continue
		}
		n := ig.NodeID(i)
		if r.ab.FIFOPriority {
			return n
		}
		if pri := r.priority(n); best < 0 || pri > bestPri {
			best, bestPri = n, pri
		}
	}
	return best
}

// avail lists, ascending, the registers below k that no colored
// original-graph neighbor of n wears.
func (r *refSelector) avail(n ig.NodeID) []int {
	taken := make([]bool, r.k)
	for _, nb := range r.nbrs[n] {
		if c := r.color[nb]; c >= 0 && c < r.k {
			taken[c] = true
		}
	}
	var regs []int
	for c, t := range taken {
		if !t {
			regs = append(regs, c)
		}
	}
	return regs
}

// refHonors reports whether p's holder wearing register reg honors p
// when p's target wears tc (ignored by class and Allowed preferences).
func refHonors(m *target.Machine, p *Pref, reg, tc int) bool {
	switch p.Kind {
	case Coalesce:
		return reg == tc
	case SeqPlus:
		return m.PairOK(reg, tc)
	case SeqMinus:
		return m.PairOK(tc, reg)
	case Prefers:
		if p.Allowed != nil {
			return slices.Contains(p.Allowed, reg)
		}
		return (p.Class == ClassVolatile) == m.IsVolatile(reg)
	}
	return false
}

// target is the color of p's target, -1 for a class or Allowed
// preference.
func (r *refSelector) target(p *Pref) int {
	if p.To < 0 {
		return -1
	}
	return r.color[p.To]
}

// prefState classifies p for a holder whose available registers are
// avail (steps 2.1–2.3) and gives its best honoring strength: the best
// StrengthFor over the volatility classes of the honoring registers.
func (r *refSelector) prefState(p *Pref, avail []int) (float64, prefStatus) {
	if p.To >= 0 {
		switch {
		case r.spilled[p.To]:
			return 0, prefDead
		case p.Kind == Coalesce && r.g.OrigInterferes(p.From, p.To):
			return 0, prefDead
		case r.color[p.To] < 0:
			return 0, prefDeferred
		}
	}
	hasVol, hasNonVol := false, false
	for _, reg := range avail {
		if refHonors(r.m, p, reg, r.target(p)) {
			if r.m.IsVolatile(reg) {
				hasVol = true
			} else {
				hasNonVol = true
			}
		}
	}
	if !hasVol && !hasNonVol {
		return 0, prefDead
	}
	best := math.Inf(-1)
	if hasVol {
		best = math.Max(best, p.StrengthFor(true))
	}
	if hasNonVol {
		best = math.Max(best, p.StrengthFor(false))
	}
	return best, prefHonorable
}

// priority is the strength differential of n's honorable preferences
// (steps 2–3): -Inf with none, a lone preference's own strength.
func (r *refSelector) priority(n ig.NodeID) float64 {
	avail := r.avail(n)
	var strengths []float64
	for _, pi := range r.rpg.Prefs(n) {
		if st, state := r.prefState(r.rpg.Pref(pi), avail); state == prefHonorable {
			strengths = append(strengths, st)
		}
	}
	switch len(strengths) {
	case 0:
		return math.Inf(-1)
	case 1:
		return strengths[0]
	}
	minS, maxS := strengths[0], strengths[0]
	for _, v := range strengths[1:] {
		minS = math.Min(minS, v)
		maxS = math.Max(maxS, v)
	}
	return maxS - minS
}

func (r *refSelector) isSpillTemp(n ig.NodeID) bool {
	w := int(n) - r.g.NumPhys()
	return w >= 0 && r.ctx.SpillTemp[w]
}

// process is step 4 with §5.4's active spill and the spill-temporary
// eviction, then step 5's release of n's CPG successors.
func (r *refSelector) process(n ig.NodeID, cpg *CPG) {
	r.ready[n], r.done[n] = false, true
	if r.activelySpills(n) {
		r.spill(n)
	} else {
		avail := r.avail(n)
		for len(avail) == 0 && r.isSpillTemp(n) && r.evict(n) {
			avail = r.avail(n)
		}
		if len(avail) == 0 {
			r.spill(n)
		} else {
			c := r.chooseReg(n, avail)
			r.color[n] = c
			r.grant(n, c)
		}
	}
	for _, s := range cpg.Succs(n) {
		if s < 0 {
			continue
		}
		if r.preds[s]--; r.preds[s] == 0 && !r.done[s] {
			r.ready[s] = true
		}
	}
}

func (r *refSelector) spill(n ig.NodeID) {
	r.color[n] = -1
	r.spilled[n] = true
	r.spills = append(r.spills, n)
}

// activelySpills is §5.4: in full-preference mode, a web other than a
// spill temporary whose strongest preference is negative goes to
// memory.
func (r *refSelector) activelySpills(n ig.NodeID) bool {
	if r.mode != FullPreferences || r.ab.NoActiveSpill || r.isSpillTemp(n) {
		return false
	}
	prefs := r.rpg.Prefs(n)
	if len(prefs) == 0 {
		return false
	}
	best := math.Inf(-1)
	for _, pi := range prefs {
		best = math.Max(best, r.rpg.Pref(pi).MaxStrength())
	}
	return best < 0
}

// evict spills the first cheapest colored, unspilled neighbor of spill
// temporary n that is neither physical nor a spill temporary itself,
// and reports whether there was one.
func (r *refSelector) evict(n ig.NodeID) bool {
	best, bestCost := ig.NodeID(-1), math.Inf(1)
	for _, nb := range r.nbrs[n] {
		if r.g.IsPhys(nb) || r.color[nb] < 0 || r.spilled[nb] || r.isSpillTemp(nb) {
			continue
		}
		if c := r.g.SpillCost(nb); c < bestCost {
			best, bestCost = nb, c
		}
	}
	if best < 0 {
		return false
	}
	r.spill(best)
	return true
}

// chooseReg is steps 4.2–4.4: screen avail by the honorable
// preferences, strongest first, then by the deferred ones, skipping any
// screen that would leave nothing; then take the register n's copy
// component was granted most (first on ties), else the first
// non-volatile one in coalesce-only mode, else the first.
func (r *refSelector) chooseReg(n ig.NodeID, avail []int) int {
	type ranked struct {
		p  *Pref
		st float64
	}
	var honorable []ranked
	var deferred []*Pref
	for _, pi := range r.rpg.Prefs(n) {
		p := r.rpg.Pref(pi)
		switch st, state := r.prefState(p, avail); state {
		case prefHonorable:
			honorable = append(honorable, ranked{p, st})
		case prefDeferred:
			deferred = append(deferred, p)
		}
	}
	sort.SliceStable(honorable, func(i, j int) bool { return honorable[i].st > honorable[j].st })

	cands := avail
	screen := func(keep func(reg int) bool) {
		var sub []int
		for _, reg := range cands {
			if keep(reg) {
				sub = append(sub, reg)
			}
		}
		if len(sub) > 0 {
			cands = sub
		}
	}
	for _, h := range honorable {
		screen(func(reg int) bool { return refHonors(r.m, h.p, reg, r.target(h.p)) })
	}
	if !r.ab.NoDeferredScreen {
		for _, p := range deferred {
			free := r.avail(p.To)
			interferes := r.g.OrigInterferes(p.From, p.To)
			screen(func(reg int) bool {
				for _, q := range free {
					if !(interferes && q == reg) && refHonors(r.m, p, reg, q) {
						return true
					}
				}
				return false
			})
		}
	}
	if counts := r.grants[r.find(int(n))]; counts != nil {
		best := -1
		for _, reg := range cands {
			if counts[reg] > 0 && (best < 0 || counts[reg] > counts[best]) {
				best = reg
			}
		}
		if best >= 0 {
			return best
		}
	}
	if r.mode == CoalesceOnly {
		for _, reg := range cands {
			if !r.m.IsVolatile(reg) {
				return reg
			}
		}
	}
	return cands[0]
}

// recolorFixup is the greedy repair of unhonored copies: up to
// recolorPasses passes over the first move of each non-interfering
// endpoint pair, heaviest first, each pass retrying every move whose
// endpoints wear different colors, until a pass applies nothing.
func (r *refSelector) recolorFixup() {
	type cand struct {
		x, y ig.NodeID
		w    float64
	}
	var moves []cand
	seen := map[[2]ig.NodeID]bool{}
	for _, mv := range r.g.Moves() {
		pair := [2]ig.NodeID{min(mv.X, mv.Y), max(mv.X, mv.Y)}
		if !seen[pair] {
			seen[pair] = true
			if !r.g.OrigInterferes(mv.X, mv.Y) {
				moves = append(moves, cand{mv.X, mv.Y, mv.Weight})
			}
		}
	}
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].w > moves[j].w })
	for range recolorPasses {
		changed := false
		for _, mv := range moves {
			cx, cy := r.color[mv.x], r.color[mv.y]
			if cx >= 0 && cy >= 0 && cx != cy && r.tryPlans(mv.x, mv.y) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// tryPlans applies the best plan for the unhonored copy (x, y) whose
// gain beats zero, and each later one only by more than 1e-9: x to y's
// color, y to x's, both to a third color c ascending, then x's copy
// component (3 to maxCompPlan colored webs) onto each color ascending.
func (r *refSelector) tryPlans(x, y ig.NodeID) bool {
	cx, cy := r.color[x], r.color[y]
	var best []refMove
	bestDelta := 0.0
	consider := func(plan []refMove) {
		if d, ok := r.planDelta(plan); ok && d > bestDelta+1e-9 {
			best, bestDelta = slices.Clone(plan), d
		}
	}
	if !r.g.IsPhys(x) {
		consider([]refMove{{x, cy}})
	}
	if !r.g.IsPhys(y) {
		consider([]refMove{{y, cx}})
	}
	if !r.g.IsPhys(x) && !r.g.IsPhys(y) {
		for c := range r.k {
			if c != cx && c != cy {
				consider([]refMove{{x, c}, {y, c}})
			}
		}
	}
	var members []ig.NodeID
	for i := r.g.NumPhys(); i < r.g.NumNodes(); i++ {
		if r.color[i] >= 0 && r.find(i) == r.find(int(x)) {
			members = append(members, ig.NodeID(i))
		}
	}
	if len(members) > 2 && len(members) <= maxCompPlan {
		for c := range r.k {
			if plan := r.componentPlan(members, c); len(plan) >= 2 {
				consider(plan)
			}
		}
	}
	if best == nil {
		return false
	}
	for _, pm := range best {
		r.color[pm.n] = pm.c
	}
	r.recolors += len(best)
	return true
}

// componentPlan gathers, in order, the members not on c that can wear c
// beside the members gathered before them.
func (r *refSelector) componentPlan(members []ig.NodeID, c int) []refMove {
	var plan []refMove
	for _, m := range members {
		if r.color[m] == c {
			continue
		}
		plan = append(plan, refMove{m, c})
		if !r.colorFree(m, c, plan) {
			plan = plan[:len(plan)-1]
		}
	}
	return plan
}

// planned is n's color under plan, its current color when plan does
// not move it.
func (r *refSelector) planned(n ig.NodeID, plan []refMove) int {
	for _, pm := range plan {
		if pm.n == n {
			return pm.c
		}
	}
	return r.color[n]
}

// colorFree reports whether n may wear c under plan: no original-graph
// neighbor wears c once the plan is applied.
func (r *refSelector) colorFree(n ig.NodeID, c int, plan []refMove) bool {
	for _, nb := range r.nbrs[n] {
		if r.planned(nb, plan) == c {
			return false
		}
	}
	return true
}

// planDelta validates plan (only webs, each free for its color) and
// sums, in plan order, each planned node's score under the plan minus
// its current score.
func (r *refSelector) planDelta(plan []refMove) (float64, bool) {
	for _, pm := range plan {
		if r.g.IsPhys(pm.n) || !r.colorFree(pm.n, pm.c, plan) {
			return 0, false
		}
	}
	delta := 0.0
	for _, pm := range plan {
		delta += r.score(pm.n, pm.c, plan) - r.score(pm.n, r.color[pm.n], nil)
	}
	return delta, true
}

// score values web n wearing c with its partners colored as under
// plan: the savings of its honored copy, pair and Allowed preferences,
// minus c's call cost in full-preference mode.
func (r *refSelector) score(n ig.NodeID, c int, plan []refMove) float64 {
	total := 0.0
	if r.mode == FullPreferences {
		total -= r.ctx.Costs.CallCost(int(n)-r.g.NumPhys(), r.m.IsVolatile(c))
	}
	for _, pi := range r.rpg.Prefs(n) {
		p := r.rpg.Pref(pi)
		tc := -1
		switch {
		case p.Kind != Prefers:
			if tc = r.planned(p.To, plan); tc < 0 {
				continue
			}
		case p.Allowed == nil:
			continue
		}
		if refHonors(r.m, p, c, tc) {
			total += p.Savings
		}
	}
	return total
}

// referenceDiff is a regalloc.Allocator that colors each round with a
// (through fixupOnSpill when spillFixup is set) and then with the
// reference on the same round's context, RPG and CPG. It fails tb
// unless both give every node the same color, the same spill set in the
// same order, and the same number of recolored nodes, and hands a's
// result on.
type referenceDiff struct {
	a          *Allocator
	inner      regalloc.Allocator
	spillFixup bool
	tb         testing.TB
}

func (d *referenceDiff) Name() string { return d.a.Name() }

func (d *referenceDiff) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	cs := coreScratchFor(ctx)
	recolors := 0
	cs.sel.rcHook = func() { recolors++ }
	res, err := d.inner.Allocate(ctx)
	cs.sel.rcHook = nil
	if err != nil {
		return res, err
	}
	fail := func(format string, args ...any) {
		d.tb.Helper()
		d.tb.Fatalf("%s/%s on %s: %s", d.a.Name(), ctx.F.Name, ctx.Machine.Name, fmt.Sprintf(format, args...))
	}
	ref, err := referenceSelect(ctx, &cs.rpg, &cs.cpg, d.a.mode, d.a.ablation, d.spillFixup)
	if err != nil {
		fail("%v", err)
	}
	for n := range ctx.Graph.NumNodes() {
		if res.Colors[n] != ref.color[n] {
			fail("node %d colored %d, reference %d", n, res.Colors[n], ref.color[n])
		}
	}
	if !slices.Equal(res.Spilled, ref.spills) {
		fail("spilled %v, reference %v", res.Spilled, ref.spills)
	}
	if recolors != ref.recolors {
		fail("%d nodes recolored, reference %d", recolors, ref.recolors)
	}
	return res, nil
}
