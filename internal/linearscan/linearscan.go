// Package linearscan is the fast-tier register allocator: one linear
// scan over conservative live-interval hulls, driven by its own round
// loop that skips web renumbering and the interference graph.
//
// Where the preference-directed allocator builds a precedence graph
// and runs a global selection loop, this allocator flattens the
// function into one position sequence (blocks in layout order) and
// gives every virtual register a single interval — the hull from its
// first to its last program point. A block's live-in covers the block
// start, its live-out the block end, and every def or use its own
// instruction, so two registers whose hulls are disjoint can never
// interfere: any Chaitin interference (a def with the other register
// live after it) puts the defining position inside both hulls. Hull
// overlap is therefore a conservative superset of interference.
// Conflicts with physical registers are not approximated: one
// backward walk over the liveness solution applies Chaitin's rules to
// mixed pairs — a def conflicts with everything live after it, values
// live across a call conflict with the volatile registers, and the
// entry point defines everything live into it — and collects them
// into a per-register forbidden-set bitmask.
//
// Run skips the analyses that dominate the standard driver's latency:
//
//   - No web renumbering. A virtual register is its own web; its hull
//     covers every live range it carries, and coarser webs only widen
//     hulls, so the assignment stays valid.
//   - No interference graph. Hull overlap and the forbid masks answer
//     every conflict query the scan asks.
//   - No RegSet maps. Liveness comes from liveness.Scratch.Solve's
//     dense rows, the same fixpoint the driver's analysis runs.
//   - No caller-save scan. The forbid masks keep volatile registers
//     away from every value live across a call, so the rewrite never
//     needs a save and regalloc.RewriteColored gets a nil liveness.
//
// Spill rounds reuse the driver's spill-everywhere inserter and the
// final round the driver's rewrite, so the output leaves through the
// same code every other allocator exits through. The registered
// allocator (New) implements regalloc.Driver: regalloc.Run,
// RunChecked, AllocateAll and every registry consumer run this same
// loop, so the code the oracle grades is the code the daemon serves.
//
// The price is quality: registers live in disjoint regions still
// conflict, sequential pairs and limited-usage rules are not honored
// (the oracle grades both as preferences), and the only coalescing is
// taking a copy partner's register when it is free. That is the trade
// a serving tier makes — the daemon returns this allocation inside
// the request deadline and upgrades the cache entry with the pref-full
// result in the background.
//
// Positions are coarse: a def shares its position with the uses it
// consumes, so a reload temporary and the temporary defined from it
// overlap at that one position although the reload dies there. With a
// third unspillable hull at the same point, a two-register machine
// has no register left and Run fails with "spill temporary stranded".
// The function that loops back into its entry block does this at
// UsageModel(2): its spilled parameter's entry capture is live around
// the back edge and holds one register across the whole loop, and the
// reload and the split def of one instruction both need the other.
// The daemon's tier falls back to the full pipeline on any fast-path
// error.
package linearscan

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/regalloc"
	buf "prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// virtWord is the first word of a liveness row that holds virtual
// registers: rows index registers by encoding, and FirstVirtual (256)
// is word-aligned. Physical register r is bit int(r) of the row, so
// the forbid masks below use the same encoding for physical registers.
const virtWord = int(ir.FirstVirtual) / 64

// Alloc is the registered "linearscan" allocator. It implements
// regalloc.Driver, so the standard driver hands it the whole
// allocation and it runs Run; it never colors a driver graph.
type Alloc struct{}

// New returns the linear-scan allocator.
func New() *Alloc { return &Alloc{} }

// Name identifies the algorithm in stats and figures.
func (*Alloc) Name() string { return "linearscan" }

// Allocate always fails: linear scan has its own round loop and runs
// only through regalloc.Run (via Drive) or Run.
func (*Alloc) Allocate(*regalloc.Context) (*regalloc.Result, error) {
	return nil, errors.New("linearscan: does not color driver graphs; allocate through regalloc.Run")
}

// Drive runs Run under the standard driver's options. MaxRounds maps
// across, validation is on unless SkipValidate is set, and a driver
// workspace keeps the fast path's scratch on its allocator slot.
// Rematerialize and BlockLocalSpills are refused rather than ignored:
// Run always spills everywhere.
func (*Alloc) Drive(input *ir.Func, m *target.Machine, opts regalloc.Options) (*ir.Func, *regalloc.Stats, error) {
	if opts.Rematerialize || opts.BlockLocalSpills {
		return nil, nil, errors.New("linearscan: Rematerialize and BlockLocalSpills are not implemented")
	}
	var ws *Workspace
	if rws := opts.Workspace; rws != nil {
		if ws, _ = rws.AllocatorScratch().(*Workspace); ws == nil {
			ws = NewFastWorkspace()
			rws.SetAllocatorScratch(ws)
		}
	}
	return Run(input, m, RunOptions{MaxRounds: opts.MaxRounds, Validate: !opts.SkipValidate, Workspace: ws})
}

// RunOptions configures Run.
type RunOptions struct {
	// MaxRounds bounds the spill-and-retry loop; 0 means 16.
	MaxRounds int

	// Validate cross-checks every round's assignment against a
	// freshly built interference graph (the standard CheckResult) and
	// audits the final round with the full regalloc.CheckAllocation
	// oracle. It rebuilds per round the very analyses the fast path is
	// designed to skip; tests and regalloc.Run turn it on, the daemon's
	// fast tier does not.
	Validate bool

	// Workspace, when non-nil, supplies reusable buffers across Run
	// calls. A workspace serves one Run at a time; reuse is
	// observationally pure.
	Workspace *Workspace
}

// Workspace is Run's scratch arena: the liveness solution, the
// forbidden-set masks, the scan state, and the spill bookkeeping,
// reused across rounds and across Run calls.
type Workspace struct {
	live liveness.Scratch

	fw       int        // words per forbid row: physical bits 1..k
	forbid   []uint64   // per web, fw words of forbidden registers
	livePhys []uint64   // backward-walk live physical registers
	liveVirt []uint64   // backward-walk live virtual registers
	partners [][]ir.Reg // per web, copy partners in reverse order

	start, end []int32 // interval hull per web; start < 0 = never seen
	order      []int32 // web indices sorted by interval start
	active     []activeInterval
	regOwner   []int32 // active web holding each register; -1 = free
	colors     []int   // register per web; -1 = none
	spilled    []int
	temp       []bool // spill temporaries, by register number
}

type activeInterval struct {
	web int32
	end int32
	reg int32
}

// NewFastWorkspace returns an empty workspace. The zero value also
// works.
func NewFastWorkspace() *Workspace { return &Workspace{} }

// Run allocates registers for input on machine m and returns the
// rewritten function and statistics, exactly like regalloc.Run but
// without renumbering or graph construction. The input function is
// not modified.
func Run(input *ir.Func, m *target.Machine, opts RunOptions) (*ir.Func, *regalloc.Stats, error) {
	if err := regalloc.ValidateInput(input, m); err != nil {
		return nil, nil, err
	}
	var phiErr error
	input.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		if phiErr == nil && in.Op == ir.Phi {
			phiErr = fmt.Errorf("linearscan: b%d[%d]: φ-functions must be lowered first", b.ID, i)
		}
	})
	if phiErr != nil {
		return nil, nil, phiErr
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	ws := opts.Workspace
	if ws == nil {
		ws = NewFastWorkspace()
	}

	f := input.Clone()
	stats := &regalloc.Stats{
		Allocator:   "linearscan",
		MovesBefore: f.CountOp(ir.Move),
	}
	k := m.NumRegs
	ws.fw = (k + 64) / 64
	volMask := make([]uint64, ws.fw)
	for _, v := range m.VolatileRegs() {
		setBit(volMask, int(ir.Phys(v)))
	}

	ws.temp = buf.Slice(ws.temp, f.NumVirt)
	for round := 1; round <= maxRounds; round++ {
		stats.Rounds = round
		nw := f.NumVirt
		ws.reset(nw, k)
		ws.live.Solve(f)
		ws.prepare(f, nw, volMask)
		ws.sortOrder()
		if err := ws.scan(k); err != nil {
			return nil, nil, err
		}
		var ctx *regalloc.Context
		var res *regalloc.Result
		if opts.Validate {
			var err error
			if ctx, res, err = checkRound(f, m, ws.colors, ws.spilled, ws.temp); err != nil {
				return nil, nil, fmt.Errorf("linearscan: round %d: %w", round, err)
			}
		}
		if len(ws.spilled) == 0 {
			var preF *ir.Func
			if opts.Validate {
				preF = f.Clone() // the rewrite mutates f in place
			}
			out, err := regalloc.RewriteColored(f, m, nil, ws.colors, stats)
			if err != nil {
				return nil, nil, err
			}
			if opts.Validate {
				if err := regalloc.CheckAllocation(input, out, stats, m, ctx, preF, res); err != nil {
					return nil, nil, err
				}
			}
			return out, stats, nil
		}
		stats.SpilledWebs += len(ws.spilled)
		temps := regalloc.InsertSpillEverywhere(f, ws.spilled)
		temps = append(temps, splitSpilledDefs(f, ws.spilled)...)
		for len(ws.temp) < f.NumVirt {
			ws.temp = append(ws.temp, false)
		}
		for _, t := range temps {
			ws.temp[t.VirtNum()] = true
		}
	}
	return nil, nil, fmt.Errorf("linearscan: did not converge in %d rounds", maxRounds)
}

func setBit(row []uint64, n int) { row[n>>6] |= 1 << (uint(n) & 63) }
func clrBit(row []uint64, n int) { row[n>>6] &^= 1 << (uint(n) & 63) }

// reset sizes the per-round state for nw webs and k registers and
// clears it.
func (ws *Workspace) reset(nw, k int) {
	ws.start = buf.Fill(ws.start, nw, -1)
	ws.end = buf.Fill(ws.end, nw, -1)
	ws.colors = buf.Fill(ws.colors, nw, -1)
	ws.regOwner = buf.Fill(ws.regOwner, k, -1)
	ws.order = buf.Slice(ws.order, nw)
	for w := range ws.order {
		ws.order[w] = int32(w)
	}
	ws.active = ws.active[:0]
	ws.spilled = ws.spilled[:0]
}

// prepare derives everything the scan needs from the liveness rows in
// one backward walk per block: the interval hulls (positions number
// block boundaries and instructions consecutively in layout order;
// the block-start position carries the live-in set and the block-end
// position the live-out set, and each def or use covers its own
// position), the exact phys-versus-web conflict masks (the graph
// builder's Chaitin rules for mixed pairs: the entry clique, defs
// against everything live after them minus the copy-source exception,
// call clobbers against everything live across the call), and each
// web's copy partners. Webs never touched (dead parameters) keep
// start -1.
func (ws *Workspace) prepare(f *ir.Func, nw int, volMask []uint64) {
	fw := ws.fw
	ws.forbid = buf.Slice(ws.forbid, nw*fw)
	ws.livePhys = buf.Slice(ws.livePhys, fw)
	ws.liveVirt = buf.Slice(ws.liveVirt, (nw+63)/64)
	ws.partners = buf.Rows(ws.partners, nw)

	forbidRow := func(w int) []uint64 { return ws.forbid[w*fw : (w+1)*fw] }
	touch := func(w int, p int32) {
		if ws.start[w] < 0 {
			ws.start[w], ws.end[w] = p, p
			return
		}
		if p < ws.start[w] {
			ws.start[w] = p
		}
		if p > ws.end[w] {
			ws.end[w] = p
		}
	}
	// eachLiveVirt visits the live virtual registers, skipping skip
	// (-1 skips nothing).
	eachLiveVirt := func(skip int, fn func(v int)) {
		for wi, wbits := range ws.liveVirt {
			for t := wbits; t != 0; t &= t - 1 {
				if v := wi<<6 + bits.TrailingZeros64(t); v != skip {
					fn(v)
				}
			}
		}
	}
	touchLiveVirt := func(p int32) {
		for wi, wbits := range ws.liveVirt {
			for t := wbits; t != 0; t &= t - 1 {
				touch(wi<<6+bits.TrailingZeros64(t), p)
			}
		}
	}

	// Function entry defines every value live into it simultaneously:
	// each virtual member conflicts with each physical member.
	entry := ws.live.LiveInRow(f.Entry().ID)
	for wi, wbits := range entry[virtWord:] {
		for t := wbits; t != 0; t &= t - 1 {
			row := forbidRow(wi<<6 + bits.TrailingZeros64(t))
			for j, m := range entry[:fw] {
				row[j] |= m
			}
		}
	}

	pos := int32(0)
	for _, b := range f.Blocks {
		startPos := pos
		endPos := startPos + int32(len(b.Instrs)) + 1
		pos = endPos + 1

		out := ws.live.LiveOutRow(b.ID)
		copy(ws.liveVirt, out[virtWord:])
		copy(ws.livePhys, out[:fw])
		touchLiveVirt(endPos)

		for idx := len(b.Instrs) - 1; idx >= 0; idx-- {
			in := &b.Instrs[idx]
			ipos := startPos + 1 + int32(idx)
			isCopy := in.IsCopy()
			for _, d := range in.Defs {
				if d.IsVirt() {
					row := forbidRow(d.VirtNum())
					// The copy-source exception skips adding that one
					// bit at this def event only; a conflict some
					// other def already established must survive, so
					// mask the addition rather than clearing the row.
					exclW, exclM := -1, uint64(0)
					if isCopy && in.Uses[0].IsPhys() {
						u := in.Uses[0]
						exclW, exclM = int(u)>>6, 1<<(uint(u)&63)
					}
					for j, m := range ws.livePhys {
						if j == exclW {
							m &^= exclM
						}
						row[j] |= m
					}
				} else if d.IsPhys() {
					excl := -1
					if isCopy && in.Uses[0].IsVirt() {
						excl = in.Uses[0].VirtNum()
					}
					eachLiveVirt(excl, func(v int) { setBit(forbidRow(v), int(d)) })
				}
			}
			if in.Op == ir.Call {
				defV := -1
				if d := in.Def(); d.IsVirt() {
					defV = d.VirtNum()
				}
				eachLiveVirt(defV, func(v int) {
					row := forbidRow(v)
					for j, m := range volMask {
						row[j] |= m
					}
				})
			}
			if isCopy {
				d, u := in.Defs[0], in.Uses[0]
				if d != u {
					if d.IsVirt() {
						ws.partners[d.VirtNum()] = append(ws.partners[d.VirtNum()], u)
					}
					if u.IsVirt() {
						ws.partners[u.VirtNum()] = append(ws.partners[u.VirtNum()], d)
					}
				}
			}
			for _, d := range in.Defs {
				if d.IsVirt() {
					clrBit(ws.liveVirt, d.VirtNum())
					touch(d.VirtNum(), ipos)
				} else if d.IsPhys() {
					clrBit(ws.livePhys, int(d))
				}
			}
			for _, u := range in.Uses {
				if u.IsVirt() {
					setBit(ws.liveVirt, u.VirtNum())
					touch(u.VirtNum(), ipos)
				} else if u.IsPhys() {
					setBit(ws.livePhys, int(u))
				}
			}
		}

		// The walk has stepped back to the block's live-in set.
		touchLiveVirt(startPos)
	}
}

// sortOrder sorts the scan order by (start, end, web).
func (ws *Workspace) sortOrder() {
	order := ws.order
	sort.Slice(order, func(i, j int) bool {
		wi, wj := order[i], order[j]
		if ws.start[wi] != ws.start[wj] {
			return ws.start[wi] < ws.start[wj]
		}
		if ws.end[wi] != ws.end[wj] {
			return ws.end[wi] < ws.end[wj]
		}
		return wi < wj
	})
}

// allowed reports whether web w may sit in register r: no forbid-mask
// conflict with the physical register.
func (ws *Workspace) allowed(w, r int32) bool {
	bit := int(r) + 1 // int(ir.Phys(r))
	return ws.forbid[int(w)*ws.fw+bit>>6]&(1<<(uint(bit)&63)) == 0
}

// preferred returns the register of w's first copy partner (reverse
// program order) that is already resolved — a physical register or an
// earlier-scanned web — free, and allowed; or -1. Taking it removes
// the copy at zero cost.
func (ws *Workspace) preferred(w int32) int32 {
	for _, p := range ws.partners[w] {
		var c int32
		switch {
		case p.IsPhys():
			c = int32(p.PhysNum())
		case ws.colors[p.VirtNum()] >= 0:
			c = int32(ws.colors[p.VirtNum()])
		default:
			continue
		}
		if ws.regOwner[c] < 0 && ws.allowed(w, c) {
			return c
		}
	}
	return -1
}

// scan colors the sorted interval hulls in one pass: expire, then
// take a free allowed register (preferring a copy partner's), else
// spill the furthest-ending interval among the current one and the
// active ones whose register the current web may use. Spill
// temporaries are never spilled; a stranded temporary evicts an
// ordinary neighbor instead.
func (ws *Workspace) scan(k int) error {
	for _, w := range ws.order {
		cur := ws.start[w]
		if cur < 0 {
			// Dead web: no program point, so no forbid bits either;
			// any register will do, probed for symmetry.
			for r := int32(0); r < int32(k); r++ {
				if ws.allowed(w, r) {
					ws.colors[w] = int(r)
					break
				}
			}
			if ws.colors[w] < 0 {
				return fmt.Errorf("linearscan: dead web v%d conflicts with every register", w)
			}
			continue
		}

		// Expire intervals that ended before this one starts.
		live := ws.active[:0]
		for _, ai := range ws.active {
			if ai.end < cur {
				ws.regOwner[ai.reg] = -1
				continue
			}
			live = append(live, ai)
		}
		ws.active = live

		// Free, allowed register? Prefer a copy partner's.
		pick := ws.preferred(w)
		for r := int32(0); pick < 0 && r < int32(k); r++ {
			if ws.regOwner[r] < 0 && ws.allowed(w, r) {
				pick = r
			}
		}
		if pick >= 0 {
			ws.colors[w] = int(pick)
			ws.regOwner[pick] = w
			ws.active = append(ws.active, activeInterval{web: w, end: ws.end[w], reg: pick})
			continue
		}

		// No register: spill the furthest-ending interval among this
		// one and the active holders of registers this web may use. A
		// spill temporary is never a candidate — the spill code that
		// created it must keep its register.
		victim := -1 // index into ws.active; -1 = spill w itself
		bestEnd := int32(-1)
		if !ws.temp[w] {
			bestEnd = ws.end[w]
		}
		for i, ai := range ws.active {
			if ws.temp[ai.web] || !ws.allowed(w, ai.reg) {
				continue
			}
			if ai.end > bestEnd {
				victim, bestEnd = i, ai.end
			}
		}
		if bestEnd < 0 {
			return fmt.Errorf(
				"linearscan: spill temporary v%d stranded: every compatible register is held by another temporary", w)
		}
		if victim < 0 {
			ws.spilled = append(ws.spilled, int(w))
			continue
		}
		v := ws.active[victim]
		ws.colors[v.web] = -1
		ws.spilled = append(ws.spilled, int(v.web))
		ws.colors[w] = int(v.reg)
		ws.regOwner[v.reg] = w
		ws.active[victim] = activeInterval{web: w, end: ws.end[w], reg: v.reg}
	}
	return nil
}

// splitSpilledDefs gives each definition site of a spilled register
// its own fresh register. The spill inserter leaves every def of a
// spilled register followed immediately by its slot store, so without
// renumbering the register's hull would still span all of its defs —
// one function-wide unspillable interval, which strands the scan. The
// standard driver escapes this by renumbering the split ranges into
// separate webs; the fast path does the same surgically: rename each
// def and its adjacent store to a fresh temporary, leaving the
// original register at most its entry capture (parameters and
// upward-exposed entry values), a minimal interval at position zero.
// It returns the fresh temporaries.
func splitSpilledDefs(f *ir.Func, spilled []int) []ir.Reg {
	isSpilled := map[ir.Reg]bool{}
	for _, w := range spilled {
		isSpilled[ir.Virt(w)] = true
	}
	var temps []ir.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if !isSpilled[d] || in.Op == ir.SpillStore {
				continue
			}
			if i+1 >= len(b.Instrs) {
				continue
			}
			st := &b.Instrs[i+1]
			if st.Op != ir.SpillStore || len(st.Uses) != 1 || st.Uses[0] != d {
				continue
			}
			t := f.NewReg()
			temps = append(temps, t)
			in.Defs[0] = t
			st.Uses[0] = t
		}
	}
	return temps
}

// checkRound validates one round against a freshly built interference
// graph using the standard CheckResult, converting the dense color
// table into the driver's Result shape. It returns the context and
// result so the final round can hand them to CheckAllocation.
func checkRound(f *ir.Func, m *target.Machine, colors []int, spilled []int, temp []bool) (*regalloc.Context, *regalloc.Result, error) {
	spillTemp := make([]bool, f.NumVirt)
	copy(spillTemp, temp)
	ctx, err := regalloc.NewContext(f, m, spillTemp)
	if err != nil {
		return nil, nil, err
	}
	res := regalloc.NewResult()
	for w, c := range colors {
		if c >= 0 {
			res.Colors[ctx.Graph.NodeOf(ir.Virt(w))] = c
		}
	}
	for _, w := range spilled {
		res.Spilled = append(res.Spilled, ctx.Graph.NodeOf(ir.Virt(w)))
	}
	return ctx, res, regalloc.CheckResult(ctx, res)
}
