package core

import (
	"fmt"
	"math"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/scratch"
	"prefcolor/internal/telemetry"
)

// selector runs the §5.3 register-selection algorithm: a traversal of
// the Coloring Precedence Graph, read from the removal order's
// encoding of it, directed by the Register Preference Graph.
type selector struct {
	ctx  *regalloc.Context
	rpg  *RPG
	ord  *removalOrder
	mode Mode
	ab   Ablation

	// All per-node state is indexed by node id — like the graph
	// itself, dense slices instead of hash tables.
	color      []int // per node id; physical nodes preset
	spilled    []bool
	done       []uint64 // bitset: physical nodes and processed webs
	nProcessed int
	predCount  []int32 // unprocessed CPG predecessors, from ord.preds

	// The ready set (nodes whose CPG predecessors are all processed):
	// a bitset with an O(1) membership test plus a maintained count,
	// so the telemetry histogram costs nothing per pop. Outside the
	// FIFO ablation an indexed max-heap of the ready nodes sits on top
	// (select_heap.go), so a pop reads its root instead of scanning
	// every node.
	readyBits  []uint64
	readyCount int
	heap       []heapEntry
	heapPos    []int32

	// forbid is the per-node forbidden-register mask (kwords words of
	// k bits each, flat): bit c set when some colored original-graph
	// neighbor holds register c. It is maintained incrementally —
	// noteColored sets one bit per neighbor as a node is colored,
	// noteUncolored re-derives the freed bit on the rare eviction path
	// — so availRow reads a mask instead of rebuilding it from a full
	// neighbor walk on every priority recompute.
	forbid []uint64
	kwords int

	// Every register set selection handles is a kwords-word row laid
	// out like the forbid rows: bit r is register r. allRegs holds the
	// registers below k and volRegs the volatile ones among them.
	// pairRows caches, per partner color c, the registers r below k
	// with PairOK(r, c) (slot 2c, what honors SeqPlus) and with
	// PairOK(c, r) (slot 2c+1, SeqMinus); pairReady marks the slots
	// filled this round. regRows holds the per-call-path scratch rows
	// named by the row* constants.
	allRegs   []uint64
	volRegs   []uint64
	pairRows  []uint64
	pairReady []bool
	regRows   []uint64

	// res is the round's result, returned by run.
	res regalloc.Result

	// comp groups copy-related nodes into components (transitive
	// closure over non-interfering copies); compColors counts, per
	// component, how often each register was granted inside it (nil
	// until the component first receives a color, rows carved from
	// compArena). The final pick prefers a component's established
	// registers, which recovers the transitive-chain coalesces the
	// paper's §6.1 notes its one-at-a-time scheme can miss.
	comp       []int32
	compColors [][]int
	compArena  []int

	// priVal/priOK memoize queue priorities; processing a node
	// invalidates its interference neighbors (their available sets
	// changed) and its preference partners (their honorable sets
	// changed). prefSources[t] lists nodes holding a preference
	// aimed at t. prefStr and prefStat hold, per preference index,
	// the (strength, state) its holder's last priority derived; while
	// priOK[n] holds they are n's current ones, except that a deferred
	// preference whose partner has since spilled is dead (a spill
	// refreshes no priority), so chooseReg reads them instead of
	// classifying every preference again.
	priVal      []float64
	priOK       []bool
	prefSources [][]ig.NodeID
	prefStr     []float64
	prefStat    []prefStatus

	// maxStr is, per node, the largest MaxStrength over its
	// preferences (-Inf for none): §5.4's active-spill test.
	maxStr []float64

	// forbidHook, when set, runs for every ready neighbor whose forbid
	// bit noteColored newly sets, after its refresh, with skipped true
	// when forbidMatters spared it the recompute; only tests set it.
	forbidHook func(nb ig.NodeID, skipped bool)

	honorable []rankedPref
	deferred  []*Pref

	// Recolor-fixup scratch (see recolor.go): candidate moves and the
	// buckets and stamps that keep one per endpoint pair, the
	// per-node neighbor-color counts (k per node) and free-color rows
	// with their built marks, the copy-component CSR buckets, the
	// planned-color marks and the reusable plan overlays, the dirty
	// stamps that let later passes skip components nothing touched, the
	// cached current scores, and the cached component-plan deltas
	// (arena offset and clock per component root). rcHook, when set,
	// runs after every incremental recolorTo; only tests set it.
	rcMoves     []recolorCand
	rcPairEnd   []int32
	rcPairOrder []int32
	rcPairStamp []ig.NodeID
	rcPairFirst []bool
	rcNbCount   []int32
	rcCompOff   []int32
	rcCompNext  []int32
	rcCompMem   []ig.NodeID
	rcFree      []uint64
	rcRowOK     []bool
	rcMark      []int32
	rcPlan      planOverlay
	rcBest      planOverlay
	rcClock     uint32
	rcDirty     []uint32
	rcScore     []float64
	rcScoreOK   []bool
	rcPlanOff   []int32
	rcPlanAt    []uint32
	rcPlanDelta []float64
	rcHook      func()
}

// The regRows slots. Each call path writes its own row, so a set that
// must stay live across a nested query never shares backing: tracing
// may rank n (rowPri) while processNode's candidates (rowAvail,
// rowCand) are live, and the deferred screen reads the partner's free
// registers (rowPartner) while screening.
const (
	rowAvail   = iota // processNode's available registers
	rowPri            // priority's available registers
	rowHonor          // prefState's honoring set, consumed at once
	rowCand           // chooseReg's surviving candidates
	rowSub            // chooseReg's screening write target
	rowPartner        // a deferred partner's free registers
	rowOnce           // twoTakers: colors with at least one taker
	rowTwice          // twoTakers: colors with at least two takers
	numRegRows
)

// rankedPref pairs a preference with its current honoring strength for
// chooseReg's strongest-first screening order.
type rankedPref struct {
	p  *Pref
	st float64
}

// reset readies s for one round, reusing every per-node slice the
// previous round left behind. A recycled selector starts from the same
// observable state as a brand-new one.
func (s *selector) reset(ctx *regalloc.Context, rpg *RPG, ord *removalOrder, mode Mode) {
	g := ctx.Graph
	n := g.NumNodes()
	s.ctx, s.rpg, s.ord, s.mode = ctx, rpg, ord, mode
	s.ab = Ablation{}
	s.nProcessed = 0

	s.color = scratch.Fill(s.color, n, -1)
	for i := 0; i < g.NumPhys(); i++ {
		s.color[i] = i
	}
	s.spilled = scratch.Slice(s.spilled, n)
	s.done = scratch.Slice(s.done, bitset.Words(n))
	for i := 0; i < g.NumPhys(); i++ {
		bitset.Set(s.done, i)
	}
	s.predCount = append(s.predCount[:0], ord.preds...)
	s.readyBits = scratch.Slice(s.readyBits, bitset.Words(n))
	s.readyCount = 0
	s.heap = s.heap[:0]
	s.heapPos = scratch.Fill(s.heapPos, n, -1)
	s.compArena = s.compArena[:0]
	s.initForbid(g, ctx.K())
	s.initRegRows(g, ctx)

	if cap(s.comp) < n {
		s.comp = make([]int32, n)
	}
	s.comp = s.comp[:n]
	for i := range s.comp {
		s.comp[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for s.comp[x] != x {
			s.comp[x] = s.comp[s.comp[x]]
			x = s.comp[x]
		}
		return x
	}
	for _, m := range g.Moves() {
		if !g.OrigInterferes(m.X, m.Y) {
			rx, ry := find(int32(m.X)), find(int32(m.Y))
			if rx != ry {
				s.comp[ry] = rx
			}
		}
	}
	// Count rows must read as nil until a component's first grant, so
	// recycled rows are dropped rather than cleared.
	s.compColors = scratch.Slice(s.compColors, n)
	for i := 0; i < g.NumPhys(); i++ {
		s.noteCompColor(ig.NodeID(i), i)
	}

	s.priVal = scratch.Slice(s.priVal, n)
	s.priOK = scratch.Slice(s.priOK, n)
	s.prefSources = scratch.Rows(s.prefSources, n)
	s.prefStr = scratch.Slice(s.prefStr, rpg.NumPrefs())
	s.prefStat = scratch.Slice(s.prefStat, rpg.NumPrefs())
	s.maxStr = scratch.Fill(s.maxStr, n, math.Inf(-1))
	for i := 0; i < rpg.NumPrefs(); i++ {
		p := rpg.Pref(i)
		if p.To >= 0 {
			s.prefSources[p.To] = append(s.prefSources[p.To], p.From)
		}
		if st := p.MaxStrength(); st > s.maxStr[p.From] {
			s.maxStr[p.From] = st
		}
	}
}

func (s *selector) compOf(n ig.NodeID) int32 {
	x := int32(n)
	for s.comp[x] != x {
		s.comp[x] = s.comp[s.comp[x]]
		x = s.comp[x]
	}
	return x
}

// noteCompColor records that node n's component now holds register c.
// Count rows are carved out of a selector-owned arena so the per-
// component allocations don't recur every round; a row handed out
// before an arena growth stays valid in the old backing.
func (s *selector) noteCompColor(n ig.NodeID, c int) {
	comp := s.compOf(n)
	counts := s.compColors[comp]
	if counts == nil {
		size := s.ctx.Graph.NumPhys()
		if k := s.ctx.K(); k > size {
			size = k
		}
		off, need := len(s.compArena), len(s.compArena)+size
		if cap(s.compArena) < need {
			grown := make([]int, need, 2*need)
			copy(grown, s.compArena[:off])
			s.compArena = grown
		} else {
			s.compArena = s.compArena[:need]
			clear(s.compArena[off:need])
		}
		counts = s.compArena[off:need:need]
		s.compColors[comp] = counts
	}
	if c < len(counts) {
		counts[c]++
	}
}

// run processes every web node in a CPG-respecting order and returns
// the round's result. Its Colors are the selector's own color array,
// so a pooled selector's result is valid until the next round on the
// same scratch.
//
// The recolor fixup runs only when selection spilled nothing. A
// spilling round hands the driver nothing but its spill set, and the
// fixup only moves nodes that already hold a color, so on such a round
// its work would be thrown away (DESIGN §16).
func (s *selector) run() (*regalloc.Result, error) {
	g, tel := s.ctx.Graph, s.ctx.Telemetry
	numWebs := g.NumWebs()

	sp := tel.Begin()
	// Step 1: Q starts as the nodes whose only predecessor is Top: the
	// webs no step-7 edge enters, or under NoCPG the last one removed.
	if stack := s.ord.stack; !s.ab.NoCPG {
		for _, n := range stack {
			if s.predCount[n] == 0 {
				s.pushReady(n)
			}
		}
	} else if len(stack) > 0 {
		s.pushReady(stack[len(stack)-1])
	}

	s.res = regalloc.Result{Colors: s.color, Spilled: s.res.Spilled[:0]}
	res := &s.res
	for s.nProcessed < numWebs {
		if tel.Enabled() {
			tel.ObserveReady(s.readyCount)
		}
		n := s.chooseNode()
		if n < 0 {
			return nil, fmt.Errorf("core: CPG traversal stuck with %d of %d nodes processed", s.nProcessed, numWebs)
		}
		s.processNode(n, res)
	}
	tel.End(telemetry.PhaseSelect, sp)
	if !s.ab.NoRecolor && len(res.Spilled) == 0 {
		sp = tel.Begin()
		s.recolorFixup()
		tel.End(telemetry.PhaseRecolor, sp)
	}
	return res, nil
}

// chooseNode is steps 2–3: among ready nodes, pick the one with the
// largest strength differential between its strongest and weakest
// honorable preference (a single preference's differential is its own
// strength — the regret of missing it).
//
// It reads the root of the ready heap, which orders by (priority
// descending, node id ascending) over current priorities: exactly the
// winner of an ascending full scan with a strict keep-first maximum.
func (s *selector) chooseNode() ig.NodeID {
	switch {
	case s.ab.FIFOPriority:
		return s.firstReady()
	case len(s.heap) == 0:
		return -1
	}
	return s.heap[0].n
}

// invalidate drops node n's cached priority. Outside the FIFO
// ablation a ready n is recomputed and re-sifted on the spot:
// priorities can rise as well as fall (a deferred preference turning
// honorable), and a scan that recomputes every ready node each pop
// would see either change at the next pop, so the heap must too.
func (s *selector) invalidate(n ig.NodeID) {
	if !s.ab.FIFOPriority && s.isReady(n) {
		if pri := s.priority(n); pri != s.priVal[n] {
			s.priVal[n] = pri
			s.heapFix(n)
		}
		return
	}
	s.priOK[n] = false
}

// noteColored records n taking register c: it sets bit c in the forbid
// mask of every original neighbor not yet processed and refreshes the cached
// priorities that can have changed. Physical and processed neighbors
// are skipped: nothing reads their masks again (a node's candidates
// are read while it is processed, and a deferred partner is
// unprocessed). A neighbor's priority reads only its own mask and the
// colors and spill marks of its preference targets. The nodes holding
// a preference aimed at n (prefSources[n]) are refreshed first, so each
// neighbor's cached priority already reflects n's color and only the
// mask bit is left to account for. A neighbor whose bit c was already
// set (another colored neighbor holds c) keeps its priority; a ready
// neighbor whose bit is newly set is recomputed only when forbidMatters
// says losing c can move it (DESIGN §16 gives why the skip is exact).
// The mask bit lands before the recompute, so the recompute reads the
// post-coloring candidate set — the same state a next-pop rebuild
// would read.
//
// The same walk is step 5 for n (see release): a successor is released
// once its own mask is final, and a priority reads no other node's
// mask, so it enters the ready set under the value a release after the
// walk would compute.
func (s *selector) noteColored(n ig.NodeID, c int) {
	s.invalidateSources(n)
	kw := s.kwords
	pos, lim := s.ord.pos, s.succLim(n)
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := wi << 6
		for w &^= s.done[wi]; w != 0; w &= w - 1 {
			nb := ig.NodeID(base + bits.TrailingZeros64(w))
			if row := s.forbid[int(nb)*kw : int(nb)*kw+kw]; !bitset.Has(row, c) {
				ready := !s.ab.FIFOPriority && s.isReady(nb)
				matters := !ready || s.forbidMatters(nb, c)
				bitset.Set(row, c)
				if matters {
					s.invalidate(nb)
				}
				if ready && s.forbidHook != nil {
					s.forbidHook(nb, !matters)
				}
			}
			if pos[nb] <= lim {
				s.releaseOne(nb)
			}
		}
	}
}

// forbidMatters reports whether taking register c out of nb's
// available set can change nb's priority; it reads nb's forbid mask
// before bit c is set. Losing c changes a preference's state or
// strength only when c is in the preference's honoring set H and is
// the only register of its volatility class there: otherwise H stays
// nonempty and still meets the same classes. Each kind's test is a bit
// test or a few word ANDs instead of a full priority recompute. The
// walk applies prefState's early exits, cheapest first: a target that
// wears a color is not spilled, so only a coalesce's interference test
// remains once its target is known to wear c.
func (s *selector) forbidMatters(nb ig.NodeID, c int) bool {
	kw := s.kwords
	forbid := s.forbid[int(nb)*kw : int(nb)*kw+kw]
	vol := bitset.Has(s.volRegs, c)
	for _, pi := range s.rpg.Prefs(nb) {
		p := s.rpg.Pref(pi)
		switch p.Kind {
		case Coalesce:
			if s.color[p.To] == c && !s.ctx.Graph.OrigInterferes(p.From, p.To) {
				return true
			}
		case SeqPlus, SeqMinus:
			tc := s.color[p.To]
			if tc < 0 {
				continue
			}
			pr := s.pairRow(tc, p.Kind == SeqMinus)
			if bitset.Has(pr, c) && !s.classPeer(pr, forbid, c, vol) {
				return true
			}
		case Prefers:
			if p.Allowed != nil {
				if s.allowedAlone(p.Allowed, forbid, c, vol) {
					return true
				}
			} else if (p.Class == ClassVolatile) == vol && !s.classPeer(s.allRegs, forbid, c, vol) {
				return true
			}
		}
	}
	return false
}

// classPeer reports whether row holds a register other than c, below k
// and outside forbid, of c's volatility class vol.
func (s *selector) classPeer(row, forbid []uint64, c int, vol bool) bool {
	for i, w := range row {
		w &= s.allRegs[i] &^ forbid[i]
		if vol {
			w &= s.volRegs[i]
		} else {
			w &^= s.volRegs[i]
		}
		if i == c>>6 {
			w &^= 1 << uint(c&63)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// allowedAlone reports whether c is in allowed and no other member of
// allowed below k and outside forbid shares c's volatility class vol.
func (s *selector) allowedAlone(allowed []int, forbid []uint64, c int, vol bool) bool {
	in := false
	for _, a := range allowed {
		switch {
		case a == c:
			in = true
		case a >= 0 && a < s.ctx.K() && !bitset.Has(forbid, a) && bitset.Has(s.volRegs, a) == vol:
			return false
		}
	}
	return in
}

// invalidateSources refreshes the priorities of the nodes holding a
// preference aimed at n.
func (s *selector) invalidateSources(n ig.NodeID) {
	for _, src := range s.prefSources[n] {
		s.invalidate(src)
	}
}

// noteUncolored is the eviction-path counterpart: n just lost register
// old, so each neighbor's mask keeps bit old only if another of its
// colored neighbors still holds it. The per-neighbor re-derivation is
// the one place a full walk survives — evictions are rare (spill-
// temporary rescue only), and a plain counter per (node, color) would
// cost k counters per node on the hot path to serve it.
func (s *selector) noteUncolored(n ig.NodeID, old int) {
	g := s.ctx.Graph
	kw := s.kwords
	row := g.OrigRow(n)
	for nb := bitset.Next(row, 0); nb >= 0; nb = bitset.Next(row, nb+1) {
		still := false
		nbRow := g.OrigRow(ig.NodeID(nb))
		for j := bitset.Next(nbRow, 0); j >= 0 && !still; j = bitset.Next(nbRow, j+1) {
			still = s.color[j] == old
		}
		if !still {
			bitset.Clear(s.forbid[nb*kw:nb*kw+kw], old)
		}
		s.invalidate(ig.NodeID(nb))
	}
	s.invalidateSources(n)
}

// priority computes the step-2.3/3 strength differential for node n.
// It works out of its own row (rowPri) because tracing may ask for a
// priority while processNode's candidate sets are still live.
//
// It records each preference's (strength, state) in prefStr and
// prefStat for chooseReg.
func (s *selector) priority(n ig.NodeID) float64 {
	avail := s.regRow(rowPri)
	s.availRow(avail, n)
	honorable := 0
	var minS, maxS float64
	for _, pi := range s.rpg.Prefs(n) {
		st, state := s.prefState(s.rpg.Pref(pi), avail)
		s.prefStr[pi], s.prefStat[pi] = st, state
		if state != prefHonorable {
			continue
		}
		if honorable == 0 {
			minS, maxS = st, st
		} else {
			minS = math.Min(minS, st)
			maxS = math.Max(maxS, st)
		}
		honorable++
	}
	switch honorable {
	case 0:
		return math.Inf(-1)
	case 1:
		return maxS
	}
	return maxS - minS
}

type prefStatus uint8

const (
	prefHonorable prefStatus = iota // honorable now, with given strength
	prefDeferred                    // target not yet allocated (step 2.2)
	prefDead                        // can never be honored (step 2.1)
)

// prefState classifies preference p for a node whose available
// registers are the row avail, returning the best honoring strength
// when honorable. A register's strength depends only on its volatility,
// so the best over the honoring set is the larger of the strengths of
// the volatility classes the set meets.
func (s *selector) prefState(p *Pref, avail []uint64) (float64, prefStatus) {
	g := s.ctx.Graph
	if p.To >= 0 {
		if s.spilled[p.To] {
			return 0, prefDead
		}
		if p.Kind == Coalesce && g.OrigInterferes(p.From, p.To) {
			return 0, prefDead
		}
		if s.color[p.To] < 0 {
			return 0, prefDeferred
		}
	}
	hr := s.regRow(rowHonor)
	if !s.honorBits(hr, p, avail) {
		return 0, prefDead
	}
	hasVol, hasNonVol := false, false
	for i, w := range hr {
		hasVol = hasVol || w&s.volRegs[i] != 0
		hasNonVol = hasNonVol || w&^s.volRegs[i] != 0
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

// honorBits writes to dst the members of avail that honor p under the
// current partner colors, and reports whether there are any. dst must
// not alias avail.
func (s *selector) honorBits(dst []uint64, p *Pref, avail []uint64) bool {
	k := s.ctx.K()
	clear(dst)
	var or uint64
	switch p.Kind {
	case Coalesce:
		if tc := s.color[p.To]; tc >= 0 && tc < k && bitset.Has(avail, tc) {
			bitset.Set(dst, tc)
			return true
		}
	case SeqPlus, SeqMinus:
		pr := s.pairRow(s.color[p.To], p.Kind == SeqMinus)
		for i, w := range avail {
			dst[i] = w & pr[i]
			or |= dst[i]
		}
	case Prefers:
		if p.Allowed != nil {
			for _, a := range p.Allowed {
				if a >= 0 && a < k && bitset.Has(avail, a) {
					bitset.Set(dst, a)
					or = 1
				}
			}
			break
		}
		if p.Class == ClassVolatile {
			for i, w := range avail {
				dst[i] = w & s.volRegs[i]
				or |= dst[i]
			}
		} else {
			for i, w := range avail {
				dst[i] = w &^ s.volRegs[i]
				or |= dst[i]
			}
		}
	}
	return or != 0
}

// pairRow returns the registers below k that pair with partner color
// c: those r with PairOK(r, c) (r loads first, what honors SeqPlus), or
// with PairOK(c, r) when second is set (r loads second, SeqMinus). The
// row is filled from m.PairOK on first use in a round, so the pair rule
// itself stays defined only in target.
func (s *selector) pairRow(c int, second bool) []uint64 {
	slot := 2 * c
	if second {
		slot++
	}
	kw := s.kwords
	row := s.pairRows[slot*kw : slot*kw+kw]
	if !s.pairReady[slot] {
		s.pairReady[slot] = true
		clear(row)
		m := s.ctx.Machine
		for r := 0; r < s.ctx.K(); r++ {
			if second && m.PairOK(c, r) || !second && m.PairOK(r, c) {
				bitset.Set(row, r)
			}
		}
	}
	return row
}

// availRow writes step 4.1's candidate set to dst: machine registers
// not used by any colored node interfering with n in the original
// graph: n's maintained forbid mask complemented within the k
// registers.
func (s *selector) availRow(dst []uint64, n ig.NodeID) {
	kw := s.kwords
	for i, w := range s.forbid[int(n)*kw : int(n)*kw+kw] {
		dst[i] = ^w & s.allRegs[i]
	}
}

// initForbid seeds every web's forbidden-register mask with its
// physical neighbors — the only colored nodes at round start — by
// copying the phys-register prefix of the original adjacency row word
// for word (a phys node's color is its own id, and only colors below
// k count).
func (s *selector) initForbid(g *ig.Graph, k int) {
	kw := bitset.Words(k)
	s.kwords = kw
	n := g.NumNodes()
	s.forbid = scratch.Slice(s.forbid, n*kw)
	limit := g.NumPhys()
	if k < limit {
		limit = k
	}
	lw, rem := limit>>6, uint(limit&63)
	for i := g.NumPhys(); i < n; i++ {
		row := g.OrigRow(ig.NodeID(i))
		dst := s.forbid[i*kw : i*kw+kw]
		copy(dst[:lw], row[:lw])
		if rem != 0 {
			dst[lw] = row[lw] & (1<<rem - 1)
		}
	}
}

// initRegRows sizes the register-set rows for the round's machine and
// fills the fixed ones: allRegs, volRegs (from m.IsVolatile), and an
// empty pair-row cache covering every color a node can wear — web
// colors below k and physical node ids.
func (s *selector) initRegRows(g *ig.Graph, ctx *regalloc.Context) {
	k, kw := ctx.K(), s.kwords
	s.allRegs = scratch.Slice(s.allRegs, kw)
	s.volRegs = scratch.Slice(s.volRegs, kw)
	for r := 0; r < k; r++ {
		bitset.Set(s.allRegs, r)
		if ctx.Machine.IsVolatile(r) {
			bitset.Set(s.volRegs, r)
		}
	}
	colors := max(k, g.NumPhys())
	s.pairRows = scratch.Slice(s.pairRows, 2*colors*kw)
	s.pairReady = scratch.Slice(s.pairReady, 2*colors)
	s.regRows = scratch.Slice(s.regRows, numRegRows*kw)
}

// regRow returns scratch row slot i of regRows.
func (s *selector) regRow(i int) []uint64 {
	kw := s.kwords
	return s.regRows[i*kw : i*kw+kw]
}

// rowRegs lists a register row ascending, for trace events; nil for an
// empty or nil row.
func rowRegs(row []uint64) []int {
	var regs []int
	for r := bitset.Next(row, 0); r >= 0; r = bitset.Next(row, r+1) {
		regs = append(regs, r)
	}
	return regs
}

// processNode is step 4 plus the §5.4 active spill, followed by
// step 5's edge release.
func (s *selector) processNode(n ig.NodeID, res *regalloc.Result) {
	tel := s.ctx.Telemetry
	s.dropReady(n)
	bitset.Set(s.done, int(n))
	s.nProcessed++

	chosen, active := -1, false
	var avail, cands []uint64
	switch {
	case s.shouldActivelySpill(n):
		active = true
		s.spilled[n] = true
		res.Spilled = append(res.Spilled, n)
	default:
		avail = s.regRow(rowAvail)
		s.availRow(avail, n)
		if bitset.Next(avail, 0) < 0 && s.isSpillTemp(n) {
			// A spill temporary must not re-enter the spill set: its
			// spill code is what created it, so the driver would spin
			// (CheckResult rejects the cycle). Free a register at a
			// neighbor's expense instead.
			for bitset.Next(avail, 0) < 0 && s.evictForTemp(n, res) {
				s.availRow(avail, n)
			}
		}
		if bitset.Next(avail, 0) < 0 {
			s.spilled[n] = true
			res.Spilled = append(res.Spilled, n)
		} else {
			c, screened := s.chooseReg(n, avail)
			cands = screened
			s.color[n] = c
			s.noteCompColor(n, c)
			chosen = c
		}
	}
	if tel.Enabled() {
		tel.NoteSelection(chosen < 0, active)
		honored := s.tallyPrefs(n, chosen, tel)
		if tel.Tracing() {
			action := "select"
			switch {
			case active:
				action = "active-spill"
			case chosen < 0:
				action = "spill"
			}
			tel.TraceEvent(&telemetry.Event{
				Action: action,
				Node:   int(n),
				Reg:    s.ctx.Graph.RegOf(n).String(),
				Pri:    s.tracePriority(n),
				Avail:  rowRegs(avail), Cands: rowRegs(cands),
				Chosen: chosen, Honored: honored,
			})
		}
	}
	// A spill (chosen < 0) moves no cached priority: no forbid mask
	// changes, and the preferences aimed at n go from deferred to dead,
	// neither of which counts toward priority. noteColored's walk
	// releases a colored n's successors.
	if chosen >= 0 {
		s.noteColored(n, chosen)
	} else {
		s.release(n)
	}
	if p := s.ord.pos[n]; s.ab.NoCPG && p > 0 {
		s.pushReady(s.ord.stack[p-1])
	}
}

// succLim is the removal position up to which n's web neighbors are its
// CPG successors: n precedes exactly its neighbors a with pos[a] <=
// lim[n] (DESIGN §17). Under NoCPG it is -1, and processNode releases
// the chain's next web instead.
func (s *selector) succLim(n ig.NodeID) int32 {
	if s.ab.NoCPG {
		return -1
	}
	return s.ord.lim[n]
}

// release is step 5 for a spilled n: each unprocessed web neighbor
// that n precedes loses a predecessor. A successor cannot have been
// processed before n, so the walk skips the processed ones.
func (s *selector) release(n ig.NodeID) {
	pos, lim := s.ord.pos, s.succLim(n)
	if lim < 0 {
		return // n precedes nothing
	}
	for wi, w := range s.ctx.Graph.OrigRow(n) {
		base := wi << 6
		for w &^= s.done[wi]; w != 0; w &= w - 1 {
			if a := base + bits.TrailingZeros64(w); pos[a] <= lim {
				s.releaseOne(ig.NodeID(a))
			}
		}
	}
}

// releaseOne takes one predecessor from a, which becomes ready when
// none is left.
func (s *selector) releaseOne(a ig.NodeID) {
	if s.predCount[a]--; s.predCount[a] == 0 {
		s.pushReady(a)
	}
}

// tracePriority reports the strength differential that ranked n, for
// telemetry only. Nodes with no honorable preference rank at -Inf,
// which JSON cannot carry; they trace as 0.
func (s *selector) tracePriority(n ig.NodeID) float64 {
	pri := s.priVal[n]
	if !s.priOK[n] {
		pri = s.priority(n)
	}
	if math.IsInf(pri, 0) {
		return 0
	}
	return pri
}

// prefTelemetryClass maps an RPG edge onto telemetry's preference
// axis, splitting Prefers into class and limited-usage edges.
func prefTelemetryClass(p *Pref) telemetry.PrefClass {
	switch p.Kind {
	case Coalesce:
		return telemetry.PrefCoalesce
	case SeqPlus:
		return telemetry.PrefSeqPlus
	case SeqMinus:
		return telemetry.PrefSeqMinus
	}
	if p.Allowed != nil {
		return telemetry.PrefLimit
	}
	return telemetry.PrefRegClass
}

// honorsReg reports whether granting register r honors preference p
// under the current partner colors.
func (s *selector) honorsReg(p *Pref, r int) bool {
	m := s.ctx.Machine
	switch p.Kind {
	case Coalesce:
		return r == s.color[p.To]
	case SeqPlus:
		return m.PairOK(r, s.color[p.To])
	case SeqMinus:
		return m.PairOK(s.color[p.To], r)
	case Prefers:
		if p.Allowed != nil {
			for _, a := range p.Allowed {
				if a == r {
					return true
				}
			}
			return false
		}
		return (p.Class == ClassVolatile) == m.IsVolatile(r)
	}
	return false
}

// tallyPrefs classifies every preference held by n after its decision
// (chosen < 0 means n spilled) into honored/deferred/broken counters,
// returning the honored kind names when tracing wants them. Pure
// observation: it reads the same state the decision read and mutates
// nothing but the collector.
func (s *selector) tallyPrefs(n ig.NodeID, chosen int, tel *telemetry.Collector) []string {
	var honored []string
	for _, pi := range s.rpg.Prefs(n) {
		p := s.rpg.Pref(pi)
		cl := prefTelemetryClass(p)
		if chosen < 0 {
			tel.CountPref(cl, telemetry.Broken)
			continue
		}
		if p.To >= 0 {
			if s.spilled[p.To] || (p.Kind == Coalesce && s.ctx.Graph.OrigInterferes(p.From, p.To)) {
				tel.CountPref(cl, telemetry.Broken)
				continue
			}
			if s.color[p.To] < 0 {
				tel.CountPref(cl, telemetry.Deferred)
				continue
			}
		}
		if s.honorsReg(p, chosen) {
			tel.CountPref(cl, telemetry.Honored)
			if tel.Tracing() {
				honored = append(honored, cl.String())
			}
		} else {
			tel.CountPref(cl, telemetry.Broken)
		}
	}
	return honored
}

// isSpillTemp reports whether n is a web the spiller itself created
// in an earlier round.
func (s *selector) isSpillTemp(n ig.NodeID) bool {
	w := int(n) - s.ctx.Graph.NumPhys()
	return w >= 0 && s.ctx.SpillTemp[w]
}

// evictForTemp frees a register for spill temporary n by spilling the
// cheapest already-colored ordinary neighbor instead. Optimistic
// simplification can leave a temporary stranded behind K colored
// neighbors even though the temporary's range is only a couple of
// instructions; the pressure excess is real, but it is the neighbor —
// whose spill cost is finite — that must pay for it. Removing a color
// never violates an interference constraint, so already-made decisions
// stay valid. Returns false when every interfering color is pinned by
// a physical node or another temporary (no progress possible; the
// caller falls through to the ordinary spill path and CheckResult
// reports the impasse).
func (s *selector) evictForTemp(n ig.NodeID, res *regalloc.Result) bool {
	g := s.ctx.Graph
	best, bestCost := ig.NodeID(-1), math.Inf(1)
	row := g.OrigRow(n)
	for i := bitset.Next(row, 0); i >= 0; i = bitset.Next(row, i+1) {
		nb := ig.NodeID(i)
		if g.IsPhys(nb) || s.color[nb] < 0 || s.spilled[nb] || s.isSpillTemp(nb) {
			continue
		}
		if c := g.SpillCost(nb); c < bestCost {
			best, bestCost = nb, c
		}
	}
	if best < 0 {
		return false
	}
	old := s.color[best]
	s.color[best] = -1
	s.spilled[best] = true
	res.Spilled = append(res.Spilled, best)
	s.noteUncolored(best, old)
	return true
}

// shouldActivelySpill implements §5.4: a node whose strongest
// preference (over everything the RPG knows) is negative would rather
// live in memory. Spill temporaries are exempt.
func (s *selector) shouldActivelySpill(n ig.NodeID) bool {
	if s.mode != FullPreferences || s.ab.NoActiveSpill {
		return false
	}
	w := int(n) - s.ctx.Graph.NumPhys()
	if s.ctx.SpillTemp[w] {
		return false
	}
	return len(s.rpg.Prefs(n)) > 0 && s.maxStr[n] < 0
}

// chooseReg is steps 4.2–4.4: screen candidates by honorable
// preferences from strongest to weakest, then keep registers that
// leave deferred live-range-to-live-range preferences honorable, then
// pick. It returns the chosen register and the row of candidates that
// survived screening (the trace's "cands").
//
// While n's priority is current (priOK, outside the FIFO ablation) its
// preferences' states are those that priority recorded from the same
// avail; otherwise they are classified again.
func (s *selector) chooseReg(n ig.NodeID, avail []uint64) (int, []uint64) {
	honorable := s.honorable[:0]
	deferred := s.deferred[:0]
	cached := !s.ab.FIFOPriority && s.priOK[n]
	for _, pi := range s.rpg.Prefs(n) {
		p := s.rpg.Pref(pi)
		var st float64
		var state prefStatus
		if cached {
			st, state = s.prefStr[pi], s.prefStat[pi]
			if state == prefDeferred && s.spilled[p.To] {
				state = prefDead
			}
		} else {
			st, state = s.prefState(p, avail)
		}
		switch state {
		case prefHonorable:
			honorable = append(honorable, rankedPref{p, st})
		case prefDeferred:
			deferred = append(deferred, p)
		}
	}
	s.honorable, s.deferred = honorable, deferred
	// Stable insertion sort, descending by strength: equal strengths
	// keep RPG order, so this produces exactly the (unique) ordering a
	// stable library sort would — without its reflection allocation.
	for i := 1; i < len(honorable); i++ {
		for j := i; j > 0 && honorable[j].st > honorable[j-1].st; j-- {
			honorable[j], honorable[j-1] = honorable[j-1], honorable[j]
		}
	}

	cands, sub := s.regRow(rowCand), s.regRow(rowSub)
	copy(cands, avail)
	// Step 4.2: strongest-first screening; a preference that would
	// empty the candidate set is skipped.
	for _, h := range honorable {
		if s.honorBits(sub, h.p, cands) {
			copy(cands, sub)
		}
	}
	// Step 4.3: avoid registers that make deferred partner
	// preferences impossible.
	if s.ab.NoDeferredScreen {
		deferred = nil
	}
	for _, p := range deferred {
		if s.deferredBits(sub, p, cands) {
			copy(cands, sub)
		}
	}
	// Step 4.4: pick, walking candidates ascending. Prefer a register
	// the node's copy component already holds (transitive deferred
	// coalescing); then, in coalesce-only mode, the paper's
	// "non-volatile first" heuristic.
	if counts := s.compColors[s.compOf(n)]; counts != nil {
		best, bestCount := -1, 0
		for r := bitset.Next(cands, 0); r >= 0; r = bitset.Next(cands, r+1) {
			if r < len(counts) && counts[r] > bestCount {
				best, bestCount = r, counts[r]
			}
		}
		if best >= 0 {
			return best, cands
		}
	}
	if s.mode == CoalesceOnly {
		for i, w := range cands {
			if nonVol := w &^ s.volRegs[i]; nonVol != 0 {
				return i<<6 + bits.TrailingZeros64(nonVol), cands
			}
		}
	}
	return bitset.Next(cands, 0), cands
}

// deferredBits writes to dst the members r of cands for which giving
// p's holder register r leaves the deferred preference p (whose target
// is unallocated) honorable later — some register the partner can
// still take honors p against r — and reports whether there are any.
// The partner's free row is computed once, not per candidate. dst must
// not alias cands.
func (s *selector) deferredBits(dst []uint64, p *Pref, cands []uint64) bool {
	free := s.regRow(rowPartner)
	s.availRow(free, p.To)
	interferes := s.ctx.Graph.OrigInterferes(p.From, p.To)
	clear(dst)
	var or uint64
	switch p.Kind {
	case Coalesce:
		if interferes {
			return false
		}
		for i, w := range cands {
			dst[i] = w & free[i]
			or |= dst[i]
		}
	case SeqPlus, SeqMinus:
		// The partner loads second under SeqPlus and first under
		// SeqMinus. When the two interfere, the partner cannot also
		// take r itself.
		for r := bitset.Next(cands, 0); r >= 0; r = bitset.Next(cands, r+1) {
			pr := s.pairRow(r, p.Kind == SeqPlus)
			drop := interferes && bitset.Has(free, r)
			if drop {
				bitset.Clear(free, r)
			}
			for i, w := range pr {
				if w&free[i] != 0 {
					bitset.Set(dst, r)
					or = 1
					break
				}
			}
			if drop {
				bitset.Set(free, r)
			}
		}
	}
	return or != 0
}
