package core

import (
	"math/bits"
	"sort"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/scratch"
)

// recolorPasses bounds the greedy fixup iterations.
const recolorPasses = 3

// recolorCand is one unhonored-copy repair candidate.
type recolorCand struct {
	x, y ig.NodeID
	w    float64
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
func (s *selector) recolorFixup() {
	g := s.ctx.Graph
	s.buildRecolorIndex()
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
		moves = append(moves, recolorCand{m.X, m.Y, m.Weight})
	}
	s.rcMoves = moves
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].w > moves[j].w })

	for pass := 0; pass < recolorPasses; pass++ {
		changed := false
		for _, mv := range moves {
			cx, cy := s.colorOf(mv.x), s.colorOf(mv.y)
			if cx < 0 || cy < 0 || cx == cy {
				continue
			}
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
		for c := 0; c < k; c++ {
			if c != cx && c != cy {
				plan.nodes = append(plan.nodes[:0], x, y)
				plan.colors = append(plan.colors[:0], c, c)
				bestDelta, haveBest = s.considerPlan(plan, bestDelta, haveBest)
			}
		}
	}
	// Component plan: migrate as much of the copy component as fits
	// onto a single color (star- and chain-shaped copy groups need
	// more than two nodes to move together).
	if members := s.compMembers(x); len(members) > 2 && len(members) <= maxCompPlan {
		for c := 0; c < k; c++ {
			s.componentPlan(members, c, plan)
			if plan.len() >= 2 {
				bestDelta, haveBest = s.considerPlan(plan, bestDelta, haveBest)
			}
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
	g := s.ctx.Graph
	delta := 0.0
	for i, n := range plan.nodes {
		nc := plan.colors[i]
		if g.IsPhys(n) || !s.colorFreeFor(n, nc, plan) {
			return bestDelta, haveBest
		}
		delta += s.nodeScore(n, nc, plan) - s.nodeScore(n, s.colorOf(n), nil)
	}
	if delta > bestDelta+1e-9 {
		s.rcBest.nodes = append(s.rcBest.nodes[:0], plan.nodes...)
		s.rcBest.colors = append(s.rcBest.colors[:0], plan.colors...)
		return delta, true
	}
	return bestDelta, haveBest
}

// recolorTo commits node n to color c, keeping the per-color
// occupancy bitsets in sync.
func (s *selector) recolorTo(n ig.NodeID, c int) {
	if old := s.color[n]; old >= 0 && old < s.ctx.K() {
		bitset.Clear(s.colorRow(old), int(n))
	}
	s.color[n] = c
	if c >= 0 && c < s.ctx.K() {
		bitset.Set(s.colorRow(c), int(n))
	}
}

// colorRow returns color c's occupancy row in rcColorBits.
func (s *selector) colorRow(c int) []uint64 {
	words := s.ctx.Graph.WordsPerRow()
	return s.rcColorBits[c*words : (c+1)*words]
}

// maxCompPlan bounds the component-migration plan size.
const maxCompPlan = 12

// buildRecolorIndex prepares the two structures the recolor pass
// queries constantly: per-color occupancy bitsets (node n set in color
// c's row when n currently wears c) and the copy components bucketed
// by root in CSR form. Both stay valid for the whole pass — recoloring
// updates the bitsets via recolorTo, and the colored set itself is
// static (plans change colors, never colored-ness).
func (s *selector) buildRecolorIndex() {
	g, k := s.ctx.Graph, s.ctx.K()
	n, words := g.NumNodes(), g.WordsPerRow()

	s.rcColorBits = scratch.Slice(s.rcColorBits, k*words)
	for i := 0; i < g.NumPhys() && i < k; i++ {
		bitset.Set(s.colorRow(i), i)
	}
	for i := g.NumPhys(); i < n; i++ {
		if c := s.color[i]; c >= 0 && c < k {
			bitset.Set(s.colorRow(c), i)
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
// AND pass of n's adjacency row against color c's occupancy bitset —
// nonzero words are resolved bit by bit against the plan, and the
// plan's own recolorings get a direct interference test. Colors the
// bitsets don't track (a physical neighbor's id at or above K) take
// the plain per-neighbor walk.
func (s *selector) colorFreeFor(n ig.NodeID, c int, plan *planOverlay) bool {
	g := s.ctx.Graph
	if c < 0 || c >= s.ctx.K() {
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
	}
	cb := s.colorRow(c)
	for wi, w := range g.OrigRow(n) {
		w &= cb[wi]
		base := ig.NodeID(wi << 6)
		for w != 0 {
			nb := base + ig.NodeID(bits.TrailingZeros64(w))
			w &= w - 1
			// A plan member's current color is overridden; its planned
			// color is checked below.
			if _, ok := plan.lookup(nb); !ok {
				return false
			}
		}
	}
	if plan != nil {
		for i, m := range plan.nodes {
			if m != n && plan.colors[i] == c && g.OrigInterferes(n, m) {
				return false
			}
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
