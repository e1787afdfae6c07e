package core

import (
	"math"
	"math/bits"
	"slices"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// recolorPasses bounds the greedy fixup iterations.
const recolorPasses = 3

// recolorCand is one unhonored-copy repair candidate. evalAt is the
// recolor clock at the start of its last evaluation.
type recolorCand struct {
	x, y   ig.NodeID
	w      float64
	evalAt uint32
}

// planOverlay is a proposed recoloring: a handful of (node, color)
// overrides on top of the current assignment. Plans never exceed
// maxCompPlan entries, so lookups are a linear scan over a pair of
// small slices — cheaper than a hash table at this size, and
// iteration order is insertion order (deterministic).
type planOverlay struct {
	nodes  []ig.NodeID
	colors []int
}

// lookup returns the planned color for n, if the plan covers it.
func (p *planOverlay) lookup(n ig.NodeID) (int, bool) {
	if p == nil {
		return 0, false
	}
	for i, m := range p.nodes {
		if m == n {
			return p.colors[i], true
		}
	}
	return 0, false
}

func (p *planOverlay) add(n ig.NodeID, c int) {
	p.nodes = append(p.nodes, n)
	p.colors = append(p.colors, c)
}

func (p *planOverlay) removeLast() {
	p.nodes = p.nodes[:len(p.nodes)-1]
	p.colors = p.colors[:len(p.colors)-1]
}

func (p *planOverlay) len() int {
	if p == nil {
		return 0
	}
	return len(p.nodes)
}

// recolorFixup is a post-selection cleanup in the direction of the
// paper's closing remark ("we are working on a heuristic algorithm …
// that allows aggressive preference resolutions"): after the CPG
// traversal, copies and pairs can remain unhonored merely because an
// earlier pick took the partner register while a conflict-free
// recoloring still exists. The pass walks unhonored copies from
// heaviest to lightest and greedily recolors one or both endpoints
// whenever the move, pair, and class strengths of the RPG say the
// change is a net win; validity is checked against the original
// interference graph, so the assignment stays correct by
// construction.
//
// Passes after the first retry a move only when a recoloring since the
// start of its last evaluation dirtied its copy component (see
// noteRecolored; DESIGN §16 gives the read-set argument for why the
// skip is exact). The reference selector runs every unhonored move in
// every pass, with every score recomputed.
func (s *selector) recolorFixup() {
	g := s.ctx.Graph
	s.buildRecolorIndex()
	s.rcClock = 0
	s.rcDirty = scratch.Slice(s.rcDirty, g.NumNodes())
	s.rcScoreOK = scratch.Slice(s.rcScoreOK, g.NumNodes())
	s.rcScore = scratch.Slice(s.rcScore, g.NumNodes())
	s.rcPlanOff = scratch.Fill(s.rcPlanOff, g.NumNodes(), -1)
	s.rcPlanAt = scratch.Slice(s.rcPlanAt, g.NumNodes())
	s.rcPlanDelta = s.rcPlanDelta[:0]
	moves := s.rcMoves[:0]
	if s.rcSeen == nil {
		s.rcSeen = map[[2]ig.NodeID]bool{}
	}
	seen := s.rcSeen
	clear(seen)
	for _, m := range g.Moves() {
		key := [2]ig.NodeID{m.X, m.Y}
		if m.Y < m.X {
			key = [2]ig.NodeID{m.Y, m.X}
		}
		if seen[key] || g.OrigInterferes(m.X, m.Y) {
			continue
		}
		seen[key] = true
		moves = append(moves, recolorCand{x: m.X, y: m.Y, w: m.Weight})
	}
	s.rcMoves = moves
	slices.SortStableFunc(moves, func(a, b recolorCand) int {
		switch {
		case a.w > b.w:
			return -1
		case b.w > a.w:
			return 1
		}
		return 0
	})

	for pass := 0; pass < recolorPasses; pass++ {
		changed := false
		for i := range moves {
			mv := &moves[i]
			cx, cy := s.colorOf(mv.x), s.colorOf(mv.y)
			if cx < 0 || cy < 0 || cx == cy {
				continue
			}
			if pass > 0 && !s.refSelect && s.rcDirty[s.compOf(mv.x)] <= mv.evalAt {
				continue
			}
			mv.evalAt = s.rcClock
			if s.tryPlans(mv.x, mv.y) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (s *selector) colorOf(n ig.NodeID) int {
	if s.ctx.Graph.IsPhys(n) {
		return int(n)
	}
	return s.color[n]
}

// tryPlans evaluates the three repair plans for an unhonored copy —
// move x to y's register, y to x's, or both to a third — and applies
// the best strictly-positive one. The candidate and best overlays are
// selector-owned buffers, so the whole evaluation allocates nothing.
func (s *selector) tryPlans(x, y ig.NodeID) bool {
	g, k := s.ctx.Graph, s.ctx.K()
	cx, cy := s.colorOf(x), s.colorOf(y)

	bestDelta := 0.0
	haveBest := false
	plan := &s.rcPlan

	if !g.IsPhys(x) {
		plan.nodes = append(plan.nodes[:0], x)
		plan.colors = append(plan.colors[:0], cy)
		bestDelta, haveBest = s.considerPlan(plan, bestDelta, haveBest)
	}
	if !g.IsPhys(y) {
		plan.nodes = append(plan.nodes[:0], y)
		plan.colors = append(plan.colors[:0], cx)
		bestDelta, haveBest = s.considerPlan(plan, bestDelta, haveBest)
	}
	if !g.IsPhys(x) && !g.IsPhys(y) {
		// x and y do not interfere (recolorFixup drops interfering
		// moves), so the plan {x: c, y: c} is valid exactly when no
		// neighbor of either currently wears c. Outside the reference
		// selector the counts answer that without building the plan.
		var nx, ny []int32
		if !s.refSelect {
			nx, ny = s.nbCounts(x), s.nbCounts(y)
		}
		for c := 0; c < k; c++ {
			if c == cx || c == cy || nx != nil && (nx[c] != 0 || ny[c] != 0) {
				continue
			}
			plan.nodes = append(plan.nodes[:0], x, y)
			plan.colors = append(plan.colors[:0], c, c)
			bestDelta, haveBest = s.considerPlan(plan, bestDelta, haveBest)
		}
	}
	// Component plan: migrate as much of the copy component as fits
	// onto a single color (star- and chain-shaped copy groups need
	// more than two nodes to move together).
	if members := s.compMembers(x); len(members) > 2 && len(members) <= maxCompPlan {
		bestC := -1
		for c, d := range s.compPlanDeltas(x, members) {
			if d > bestDelta+1e-9 {
				bestDelta, haveBest, bestC = d, true, c
			}
		}
		if bestC >= 0 {
			s.componentPlan(members, bestC, plan)
			s.rcBest.nodes = append(s.rcBest.nodes[:0], plan.nodes...)
			s.rcBest.colors = append(s.rcBest.colors[:0], plan.colors...)
		}
	}
	if !haveBest {
		return false
	}
	for i, n := range s.rcBest.nodes {
		s.recolorTo(n, s.rcBest.colors[i])
	}
	s.ctx.Telemetry.NoteRecolor()
	return true
}

// considerPlan scores plan against the current assignment; when it
// strictly beats bestDelta it is copied into s.rcBest. Returns the
// updated running best.
func (s *selector) considerPlan(plan *planOverlay, bestDelta float64, haveBest bool) (float64, bool) {
	if delta, ok := s.planDelta(plan); ok && delta > bestDelta+1e-9 {
		s.rcBest.nodes = append(s.rcBest.nodes[:0], plan.nodes...)
		s.rcBest.colors = append(s.rcBest.colors[:0], plan.colors...)
		return delta, true
	}
	return bestDelta, haveBest
}

// planDelta is plan's score gain over the current assignment; ok is
// false when some planned node may not wear its planned color.
func (s *selector) planDelta(plan *planOverlay) (delta float64, ok bool) {
	g := s.ctx.Graph
	for i, n := range plan.nodes {
		nc := plan.colors[i]
		if g.IsPhys(n) || !s.colorFreeFor(n, nc, plan) {
			return 0, false
		}
		delta += s.nodeScore(n, nc, plan) - s.currentScore(n)
	}
	return delta, true
}

// compPlanDeltas returns, per color c, the gain of moving x's copy
// component onto c (componentPlan), or NaN — which never beats a
// running best — when that plan has fewer than two nodes or is
// invalid. The deltas read only the component's read set (see
// noteRecolored), so outside the reference selector they are cached
// per component and reused by its other moves until the component is
// stamped.
func (s *selector) compPlanDeltas(x ig.NodeID, members []ig.NodeID) []float64 {
	k, root := s.ctx.K(), s.compOf(x)
	off := int(s.rcPlanOff[root])
	switch {
	case off < 0:
		off = len(s.rcPlanDelta)
		s.rcPlanOff[root] = int32(off)
		s.rcPlanDelta = append(s.rcPlanDelta, make([]float64, k)...)
	case !s.refSelect && s.rcDirty[root] <= s.rcPlanAt[root]:
		return s.rcPlanDelta[off : off+k]
	}
	s.rcPlanAt[root] = s.rcClock
	deltas := s.rcPlanDelta[off : off+k]
	plan := &s.rcPlan
	for c := range deltas {
		deltas[c] = math.NaN()
		if !s.refSelect && s.takers(members, c) < 2 {
			continue
		}
		s.componentPlan(members, c, plan)
		if plan.len() >= 2 {
			if d, ok := s.planDelta(plan); ok {
				deltas[c] = d
			}
		}
	}
	return deltas
}

// takers counts the members not on c that no neighbor wearing c
// blocks. componentPlan only adds such a member — its plan holds only
// members moving onto c, none of them on c now, so the plan never
// hides a neighbor that wears c — and a plan of fewer than two nodes
// is skipped, so below two takers the plan need not be built.
func (s *selector) takers(members []ig.NodeID, c int) int {
	n := 0
	for _, m := range members {
		if s.color[m] != c && s.nbCounts(m)[c] == 0 {
			n++
		}
	}
	return n
}

// recolorTo commits node n to color c. The reference selector keeps
// the per-color occupancy bitsets in sync; the incremental one keeps
// the neighbor-color counts, the dirty stamps and the score cache.
func (s *selector) recolorTo(n ig.NodeID, c int) {
	k, old := s.ctx.K(), s.color[n]
	s.color[n] = c
	if s.refSelect {
		if old >= 0 && old < k {
			bitset.Clear(s.colorRow(old), int(n))
		}
		if c >= 0 && c < k {
			bitset.Set(s.colorRow(c), int(n))
		}
		return
	}
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := wi << 6
		for w != 0 {
			cnt := s.nbCounts(ig.NodeID(base + bits.TrailingZeros64(w)))
			w &= w - 1
			if old >= 0 && old < k {
				cnt[old]--
			}
			if c >= 0 && c < k {
				cnt[c]++
			}
		}
	}
	s.noteRecolored(n)
	if s.rcHook != nil {
		s.rcHook()
	}
}

// noteRecolored records that n's color changed. It stamps, with a
// fresh clock value, every copy component whose moves read n's color:
// n's own (plans move it and score it), those of n's original-graph
// neighbors (colorFreeFor reads n's color for them), and those of the
// nodes holding a preference aimed at n (nodeScore reads n's color for
// them). The cached current scores that read n's color — n's own and
// those of its preference sources — are dropped.
func (s *selector) noteRecolored(n ig.NodeID) {
	s.rcClock++
	clock := s.rcClock
	s.rcDirty[s.compOf(n)] = clock
	s.rcScoreOK[n] = false
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := ig.NodeID(wi << 6)
		for w != 0 {
			s.rcDirty[s.compOf(base+ig.NodeID(bits.TrailingZeros64(w)))] = clock
			w &= w - 1
		}
	}
	for _, src := range s.prefSources[n] {
		s.rcDirty[s.compOf(src)] = clock
		s.rcScoreOK[src] = false
	}
}

// currentScore is nodeScore(n, colorOf(n), nil), cached per node
// outside the reference selector; noteRecolored drops the entries a
// recoloring changes.
func (s *selector) currentScore(n ig.NodeID) float64 {
	if s.refSelect {
		return s.nodeScore(n, s.colorOf(n), nil)
	}
	if !s.rcScoreOK[n] {
		s.rcScore[n], s.rcScoreOK[n] = s.nodeScore(n, s.colorOf(n), nil), true
	}
	return s.rcScore[n]
}

// nbCounts returns n's row of rcNbCount: entry c is how many of n's
// original-graph neighbors currently wear color c < k.
func (s *selector) nbCounts(n ig.NodeID) []int32 {
	k := s.ctx.K()
	return s.rcNbCount[int(n)*k : int(n)*k+k]
}

// maxCompPlan bounds the component-migration plan size.
const maxCompPlan = 12

// buildRecolorIndex prepares the two structures the recolor pass
// queries constantly: the per-node neighbor-color counts (the
// reference selector's per-color occupancy bitsets instead) and the
// copy components bucketed by root in CSR form. Both stay valid for the
// whole pass — recolorTo updates the counts or bitsets, and the colored
// set itself is static (plans change colors, never colored-ness).
func (s *selector) buildRecolorIndex() {
	g, k := s.ctx.Graph, s.ctx.K()
	n := g.NumNodes()

	if s.refSelect {
		s.buildColorRows()
	} else {
		s.rcNbCount = scratch.Slice(s.rcNbCount, n*k)
		for i := 0; i < n; i++ {
			c := s.colorOf(ig.NodeID(i))
			if c < 0 || c >= k {
				continue
			}
			for wi, w := range g.OrigRow(ig.NodeID(i)) {
				base := wi << 6
				for w != 0 {
					s.rcNbCount[(base+bits.TrailingZeros64(w))*k+c]++
					w &= w - 1
				}
			}
		}
	}

	// CSR buckets: off[r+1] holds component r's member count during the
	// first pass, then the prefix sums turn it into row boundaries.
	off := scratch.Slice(s.rcCompOff, n+1)
	for i := g.NumPhys(); i < n; i++ {
		if s.color[i] >= 0 {
			off[s.compOf(ig.NodeID(i))+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	s.rcCompOff = off
	mem := scratch.Slice(s.rcCompMem, int(off[n]))
	next := s.rcCompNext[:0]
	next = append(next, off[:n]...)
	s.rcCompNext = next
	for i := g.NumPhys(); i < n; i++ {
		if s.color[i] >= 0 {
			r := s.compOf(ig.NodeID(i))
			mem[next[r]] = ig.NodeID(i)
			next[r]++
		}
	}
	s.rcCompMem = mem
}

// compMembers lists the colored, non-physical members of n's copy
// component — a CSR row lookup, truncated where the pre-indexed scan
// stopped (one past maxCompPlan, enough for the caller's size gate).
func (s *selector) compMembers(n ig.NodeID) []ig.NodeID {
	r := s.compOf(n)
	row := s.rcCompMem[s.rcCompOff[r]:s.rcCompOff[r+1]]
	if len(row) > maxCompPlan+1 {
		row = row[:maxCompPlan+1]
	}
	return row
}

// componentPlan greedily gathers into plan the members that can all
// wear color c simultaneously, skipping those already on c.
func (s *selector) componentPlan(members []ig.NodeID, c int, plan *planOverlay) {
	plan.nodes = plan.nodes[:0]
	plan.colors = plan.colors[:0]
	for _, m := range members {
		if s.color[m] == c {
			continue
		}
		plan.add(m, c)
		if !s.colorFreeFor(m, c, plan) {
			plan.removeLast()
		}
	}
}

// colorFreeFor reports whether node n may wear color c given current
// colors with the plan's overrides (plan members never interfere with
// each other here, but the check stays general). The usual case is one
// read of n's neighbor-color count: a neighbor wearing c blocks c
// unless the plan moves it away, so the plan members among n's
// neighbors that wear c now are taken off the count. The plan's own
// recolorings then get a direct interference test. Colors the counts
// don't track (a physical neighbor's id at or above K) take the plain
// per-neighbor walk; the reference selector takes colorFreeForRef.
func (s *selector) colorFreeFor(n ig.NodeID, c int, plan *planOverlay) bool {
	g := s.ctx.Graph
	switch {
	case c < 0 || c >= s.ctx.K():
		row := g.OrigRow(n)
		for i := bitset.Next(row, 0); i >= 0; i = bitset.Next(row, i+1) {
			nbc, ok := plan.lookup(ig.NodeID(i))
			if !ok {
				nbc = s.colorOf(ig.NodeID(i))
			}
			if nbc == c {
				return false
			}
		}
		return true
	case s.refSelect:
		return s.colorFreeForRef(n, c, plan)
	}
	if plan == nil {
		return s.nbCounts(n)[c] == 0
	}
	if blocked := s.nbCounts(n)[c]; blocked > 0 {
		for _, m := range plan.nodes {
			if s.colorOf(m) == c && g.OrigInterferes(n, m) {
				blocked--
			}
		}
		if blocked > 0 {
			return false
		}
	}
	for i, m := range plan.nodes {
		if m != n && plan.colors[i] == c && g.OrigInterferes(n, m) {
			return false
		}
	}
	return true
}

// nodeScore values node n wearing color c for recoloring decisions:
// the structural savings of honored copies and pairs minus the
// residence call cost of c's volatility class. The memory-versus-
// register baselines of the full Str values cancel between the
// before and after of any recoloring, so only these terms matter.
// Coalesce and sequential preferences exist in both directions, so
// scoring only the recolored nodes still sees every affected edge.
func (s *selector) nodeScore(n ig.NodeID, c int, plan *planOverlay) float64 {
	m := s.ctx.Machine
	vol := m.IsVolatile(c)
	total := 0.0
	if s.mode == FullPreferences {
		// In coalesce-only mode volatility is outside the objective,
		// mirroring the figure configurations' naive class handling.
		w := int(n) - s.ctx.Graph.NumPhys()
		total -= s.ctx.Costs.CallCost(w, vol)
	}
	for _, pi := range s.rpg.Prefs(n) {
		p := s.rpg.Pref(pi)
		honored := false
		switch p.Kind {
		case Coalesce, SeqPlus, SeqMinus:
			tc, ok := plan.lookup(p.To)
			if !ok {
				tc = s.colorOf(p.To)
			}
			if tc < 0 {
				continue
			}
			switch p.Kind {
			case Coalesce:
				honored = c == tc
			case SeqPlus:
				honored = m.PairOK(c, tc)
			case SeqMinus:
				honored = m.PairOK(tc, c)
			}
		case Prefers:
			if p.Allowed == nil {
				continue // class preference: covered by the call-cost term
			}
			for _, a := range p.Allowed {
				if a == c {
					honored = true
					break
				}
			}
		default:
			continue
		}
		if honored {
			total += p.Savings
		}
	}
	return total
}
