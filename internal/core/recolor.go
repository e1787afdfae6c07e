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
// overrides on top of the current assignment, in insertion order
// (deterministic). Plans never exceed maxCompPlan entries. While a plan
// is scored, markPlan copies it into the per-node rcMark array, so a
// planned color is one array read.
type planOverlay struct {
	nodes  []ig.NodeID
	colors []int
}

func (p *planOverlay) add(n ig.NodeID, c int) {
	p.nodes = append(p.nodes, n)
	p.colors = append(p.colors, c)
}

func (p *planOverlay) len() int { return len(p.nodes) }

// firstMoves marks, for each unordered endpoint pair of moves (n
// nodes), the pair's first move in slice order. The move indices are
// bucketed by lower endpoint with a counting sort, which keeps index
// order within a bucket; walking each bucket, a per-node stamp on the
// upper endpoint recognizes the pair's later moves.
func (s *selector) firstMoves(moves []ig.Move, n int) []bool {
	end := scratch.Slice(s.rcPairEnd, n+1)
	for _, m := range moves {
		end[min(m.X, m.Y)+1]++
	}
	for i := 1; i <= n; i++ {
		end[i] += end[i-1]
	}
	order := scratch.Slice(s.rcPairOrder, len(moves))
	for i, m := range moves {
		lo := min(m.X, m.Y)
		order[end[lo]] = int32(i)
		end[lo]++
	}
	// end[lo] now ends lo's bucket, which starts where lo-1's ended.
	stamp := scratch.Fill(s.rcPairStamp, n, -1)
	first := scratch.Slice(s.rcPairFirst, len(moves))
	begin := int32(0)
	for lo := range ig.NodeID(n) {
		for _, i := range order[begin:end[lo]] {
			if hi := max(moves[i].X, moves[i].Y); stamp[hi] != lo {
				stamp[hi] = lo
				first[i] = true
			}
		}
		begin = end[lo]
	}
	s.rcPairEnd, s.rcPairOrder, s.rcPairStamp, s.rcPairFirst = end, order, stamp, first
	return first
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
// skip is exact).
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
	s.rcMark = scratch.Slice(s.rcMark, g.NumNodes())
	moves := s.rcMoves[:0]
	all := g.Moves()
	first := s.firstMoves(all, g.NumNodes())
	for i, m := range all {
		if first[i] && !g.OrigInterferes(m.X, m.Y) {
			moves = append(moves, recolorCand{x: m.X, y: m.Y, w: m.Weight})
		}
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
			if pass > 0 && s.rcDirty[s.compOf(mv.x)] <= mv.evalAt {
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
	for _, n := range [2]ig.NodeID{x, y} {
		if !g.IsPhys(n) {
			s.ensureRows(n)
		}
	}

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
		// neighbor of either currently wears c. The free-color rows
		// answer that, and the plans they admit are scored without
		// re-validation.
		fx, fy := s.freeRow(x), s.freeRow(y)
		for c := 0; c < k; c++ {
			if c == cx || c == cy || !(bitset.Has(fx, c) && bitset.Has(fy, c)) {
				continue
			}
			plan.nodes = append(plan.nodes[:0], x, y)
			plan.colors = append(plan.colors[:0], c, c)
			if d := s.planGain(plan); d > bestDelta+1e-9 {
				bestDelta, haveBest = d, true
				s.keepBest(plan)
			}
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
			s.keepBest(plan)
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
		s.keepBest(plan)
		return delta, true
	}
	return bestDelta, haveBest
}

// keepBest copies plan into s.rcBest.
func (s *selector) keepBest(plan *planOverlay) {
	s.rcBest.nodes = append(s.rcBest.nodes[:0], plan.nodes...)
	s.rcBest.colors = append(s.rcBest.colors[:0], plan.colors...)
}

// planDelta is plan's score gain over the current assignment; ok is
// false when some planned node may not wear its planned color.
func (s *selector) planDelta(plan *planOverlay) (float64, bool) {
	g := s.ctx.Graph
	s.markPlan(plan)
	defer s.unmarkPlan(plan)
	for i, n := range plan.nodes {
		if g.IsPhys(n) || !s.colorFreeFor(n, plan.colors[i], plan) {
			return 0, false
		}
	}
	return s.markedGain(plan), true
}

// planGain is planDelta for a plan known to be valid. componentPlan
// admits a member only when it is free for the plan's color beside the
// members admitted before it, and interference is symmetric, so
// planDelta's re-check of the whole plan always passes; a pair plan
// tryPlans scores has passed the free-row test for both endpoints,
// which is its whole validity (DESIGN §16).
func (s *selector) planGain(plan *planOverlay) float64 {
	s.markPlan(plan)
	d := s.markedGain(plan)
	s.unmarkPlan(plan)
	return d
}

// markedGain sums, in plan order, each planned node's score under the
// marked plan minus its current score.
func (s *selector) markedGain(plan *planOverlay) float64 {
	delta := 0.0
	for i, n := range plan.nodes {
		delta += s.nodeScore(n, plan.colors[i], true) - s.currentScore(n)
	}
	return delta
}

// markPlan records plan's colors in rcMark (color+1; 0 means not
// planned), and unmarkPlan clears them again, so rcMark is all zero
// between scorings.
func (s *selector) markPlan(plan *planOverlay) {
	for i, n := range plan.nodes {
		s.rcMark[n] = int32(plan.colors[i]) + 1
	}
}

func (s *selector) unmarkPlan(plan *planOverlay) {
	for _, n := range plan.nodes {
		s.rcMark[n] = 0
	}
}

// plannedColor is n's color under the marked plan, its current color
// when no marked plan covers it.
func (s *selector) plannedColor(n ig.NodeID) int {
	if m := s.rcMark[n]; m != 0 {
		return int(m) - 1
	}
	return s.colorOf(n)
}

// compPlanDeltas returns, per color c, the gain of moving x's copy
// component onto c (componentPlan), or NaN — which never beats a
// running best — when that plan has fewer than two nodes or is
// invalid. The deltas read only the component's read set (see
// noteRecolored), so they are cached per component and reused by its
// other moves until the component is stamped, and plans are built only
// for colors with two takers and scored without re-validation
// (planGain).
func (s *selector) compPlanDeltas(x ig.NodeID, members []ig.NodeID) []float64 {
	k, root := s.ctx.K(), s.compOf(x)
	off := int(s.rcPlanOff[root])
	switch {
	case off < 0:
		off = len(s.rcPlanDelta)
		s.rcPlanOff[root] = int32(off)
		s.rcPlanDelta = append(s.rcPlanDelta, make([]float64, k)...)
	case s.rcDirty[root] <= s.rcPlanAt[root]:
		return s.rcPlanDelta[off : off+k]
	}
	s.rcPlanAt[root] = s.rcClock
	deltas := s.rcPlanDelta[off : off+k]
	plan := &s.rcPlan
	for _, m := range members {
		s.ensureRows(m)
	}
	twice := s.twoTakers(members)
	for c := range deltas {
		deltas[c] = math.NaN()
		if !bitset.Has(twice, c) {
			continue
		}
		s.componentPlan(members, c, plan)
		if plan.len() >= 2 {
			deltas[c] = s.planGain(plan)
		}
	}
	return deltas
}

// twoTakers returns the row of colors c with at least two takers: the
// members not on c that no neighbor wearing c blocks. componentPlan
// only adds such a member — its plan holds only members moving onto c,
// none of them on c now, so the plan never hides a neighbor that wears
// c — and a plan of fewer than two nodes is skipped, so below two
// takers the plan need not be built.
func (s *selector) twoTakers(members []ig.NodeID) []uint64 {
	once, twice := s.regRow(rowOnce), s.regRow(rowTwice)
	clear(once)
	clear(twice)
	for _, m := range members {
		own := s.color[m]
		for i, w := range s.freeRow(m) {
			if i == own>>6 {
				w &^= 1 << uint(own&63)
			}
			twice[i] |= once[i] & w
			once[i] |= w
		}
	}
	return twice
}

// recolorTo commits node n to color c, keeping the built
// neighbor-color counts and free-color rows (a bit flips when its count
// crosses zero), the dirty stamps and the score cache.
func (s *selector) recolorTo(n ig.NodeID, c int) {
	k, old := s.ctx.K(), s.color[n]
	s.color[n] = c
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			nb := ig.NodeID(base + bits.TrailingZeros64(w))
			if !s.rcRowOK[nb] {
				continue
			}
			cnt, free := s.nbCounts(nb), s.freeRow(nb)
			if old >= 0 && old < k {
				if cnt[old]--; cnt[old] == 0 {
					bitset.Set(free, old)
				}
			}
			if c >= 0 && c < k {
				if cnt[c]++; cnt[c] == 1 {
					bitset.Clear(free, c)
				}
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

// currentScore is n's score under its current color, cached per node;
// noteRecolored drops the entries a recoloring changes.
func (s *selector) currentScore(n ig.NodeID) float64 {
	if !s.rcScoreOK[n] {
		s.rcScore[n], s.rcScoreOK[n] = s.nodeScore(n, s.colorOf(n), false), true
	}
	return s.rcScore[n]
}

// nbCounts returns n's row of rcNbCount: entry c is how many of n's
// original-graph neighbors currently wear color c < k. The row must be
// built (ensureRows).
func (s *selector) nbCounts(n ig.NodeID) []int32 {
	k := s.ctx.K()
	return s.rcNbCount[int(n)*k : int(n)*k+k]
}

// freeRow returns n's row of rcFree: bit c set for each color c < k no
// original-graph neighbor of n currently wears (its count is zero). The
// row must be built (ensureRows).
func (s *selector) freeRow(n ig.NodeID) []uint64 {
	kw := s.kwords
	return s.rcFree[int(n)*kw : int(n)*kw+kw]
}

// ensureRows fills n's count and free-color rows from its neighbors'
// current colors unless they are built already this fixup; recolorTo
// keeps built rows current. tryPlans builds its move's endpoints and
// compPlanDeltas the component members — the only nodes whose rows are
// read — so the rows of nodes no plan touches are never built.
func (s *selector) ensureRows(n ig.NodeID) {
	if s.rcRowOK[n] {
		return
	}
	k, kw := s.ctx.K(), s.kwords
	cnt := s.rcNbCount[int(n)*k : int(n)*k+k]
	free := s.rcFree[int(n)*kw : int(n)*kw+kw]
	clear(cnt)
	copy(free, s.allRegs)
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			if c := s.colorOf(ig.NodeID(base + bits.TrailingZeros64(w))); c >= 0 && c < k {
				cnt[c]++
				free[c>>6] &^= 1 << uint(c&63)
			}
		}
	}
	s.rcRowOK[n] = true
}

// maxCompPlan bounds the component-migration plan size.
const maxCompPlan = 12

// buildRecolorIndex prepares the two structures the recolor pass
// queries constantly: room for the per-node neighbor-color counts and
// free-color rows, built on first use (ensureRows), and the copy
// components bucketed by root in CSR form. Both stay valid for the
// whole pass — recolorTo updates the built rows, and the colored set
// itself is static (plans change colors, never colored-ness).
func (s *selector) buildRecolorIndex() {
	g, k := s.ctx.Graph, s.ctx.K()
	n := g.NumNodes()

	s.rcNbCount = scratch.Slice(s.rcNbCount, n*k)
	s.rcFree = scratch.Slice(s.rcFree, n*s.kwords)
	s.rcRowOK = scratch.Slice(s.rcRowOK, n)

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
// wear color c simultaneously, skipping those already on c. No plan
// member wears c now, so colorFreeFor reduces to the member's
// free-color bit and an interference test against the members
// admitted before it.
func (s *selector) componentPlan(members []ig.NodeID, c int, plan *planOverlay) {
	g := s.ctx.Graph
	plan.nodes = plan.nodes[:0]
	plan.colors = plan.colors[:0]
next:
	for _, m := range members {
		if s.color[m] == c || !bitset.Has(s.freeRow(m), c) {
			continue
		}
		for _, p := range plan.nodes {
			if g.OrigInterferes(m, p) {
				continue next
			}
		}
		plan.add(m, c)
	}
}

// colorFreeFor reports whether node n may wear color c given current
// colors with the plan's overrides (plan members never interfere with
// each other here, but the check stays general). The usual case is one
// bit of n's free-color row: a neighbor wearing c blocks c unless the
// plan moves it away, so when c is not free the plan members among n's
// neighbors that wear c now are taken off n's count. The plan's own
// recolorings then get a direct interference test. Colors the counts
// don't track (a physical neighbor's id at or above K) take the plain
// per-neighbor walk, which reads planned colors from rcMark, so a plan
// must be marked for them.
func (s *selector) colorFreeFor(n ig.NodeID, c int, plan *planOverlay) bool {
	g := s.ctx.Graph
	if c < 0 || c >= s.ctx.K() {
		row := g.OrigRow(n)
		for i := bitset.Next(row, 0); i >= 0; i = bitset.Next(row, i+1) {
			if s.plannedColor(ig.NodeID(i)) == c {
				return false
			}
		}
		return true
	}
	if plan == nil {
		return bitset.Has(s.freeRow(n), c)
	}
	if !bitset.Has(s.freeRow(n), c) {
		blocked := s.nbCounts(n)[c]
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
// With planned set, partner colors are read under the marked plan.
func (s *selector) nodeScore(n ig.NodeID, c int, planned bool) float64 {
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
			var tc int
			if planned {
				tc = s.plannedColor(p.To)
			} else {
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
