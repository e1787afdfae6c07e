package regalloc

import (
	"context"
	"fmt"
	"io"
	"slices"

	"prefcolor/internal/bitset"
	"prefcolor/internal/cfg"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
)

// Options configures the allocation driver.
type Options struct {
	// Context, when non-nil, bounds the allocation. The driver polls
	// it at the phase boundaries of every spill round (round start,
	// after graph construction, after coloring, before spill
	// insertion) and abandons the run with the context's error once it
	// is done — so a deadline or cancellation never interrupts a phase
	// midway, it only stops the pipeline between phases. A nil Context
	// means no bound, the historical behavior.
	Context context.Context

	// MaxRounds bounds the spill-and-retry loop; 0 means 16.
	MaxRounds int

	// SkipValidate turns off the per-round CheckResult pass, and a
	// Driver's final CheckAllocation audit with it.
	SkipValidate bool

	// Rematerialize recomputes spilled constants at their uses
	// (Briggs-style rematerialization) instead of storing and
	// reloading them: a spilled web whose every definition is the
	// same loadimm gets a fresh loadimm before each use and no spill
	// slot at all.
	Rematerialize bool

	// BlockLocalSpills replaces spill-everywhere with block-granular
	// spill code: a spilled web is loaded at most once per basic
	// block, kept in a block-local temporary, and stored back once at
	// block exit — the standard improvement over store-after-every-
	// def/load-before-every-use. A web that came from such a
	// temporary falls back to spill-everywhere, which guarantees
	// termination.
	BlockLocalSpills bool

	// CollectTelemetry turns on the instrumentation layer: per-phase
	// wall/CPU timers, preference-outcome counters, and the ready-set
	// histogram land in Stats.Telemetry. Collection only observes, so
	// the assignment is bit-identical with it on or off.
	CollectTelemetry bool

	// TraceWriter, when non-nil, receives one JSON line per selection
	// or spill decision (and implies CollectTelemetry). Under the
	// batch driver wrap it with telemetry.NewLockedWriter — or let
	// AllocateAll do it — so concurrent workers do not interleave
	// lines.
	TraceWriter io.Writer

	// Workspace, when non-nil, supplies the reusable scratch arena for
	// every analysis and allocator buffer; passing the same workspace
	// to successive Run calls reuses the storage instead of
	// reallocating it. The result is bit-identical with or without
	// one. A workspace must not be used by two Runs concurrently;
	// AllocateAll ignores this field and gives each worker its own.
	Workspace *Workspace
}

// telemetryOn reports whether the options ask for any instrumentation.
func (o *Options) telemetryOn() bool {
	return o.CollectTelemetry || o.TraceWriter != nil
}

// interrupted reports the options' context error, if the context is
// set and done; allocName labels the wrapped error.
func (o *Options) interrupted(allocName string) error {
	if o.Context == nil {
		return nil
	}
	select {
	case <-o.Context.Done():
		return fmt.Errorf("regalloc: %s interrupted: %w", allocName, o.Context.Err())
	default:
		return nil
	}
}

// Stats summarizes one complete allocation, the raw numbers behind
// the paper's figures.
type Stats struct {
	Allocator string
	Rounds    int

	// MovesBefore counts copies in the input; MovesRemaining counts
	// copies surviving in the final code. Their difference is the
	// paper's "moves eliminated by coalescing" (Figure 9(a)/(c)).
	MovesBefore     int
	MovesRemaining  int
	MovesEliminated int

	// SpillLoads/SpillStores count allocator-inserted spill code
	// (Figure 9(b)/(d)). Caller-save traffic is tallied separately.
	SpillLoads  int
	SpillStores int
	SpilledWebs int

	// Remats counts spilled webs handled by rematerialization
	// (constants recomputed at uses rather than reloaded).
	Remats int

	CallerSaveStores int
	CallerSaveLoads  int

	UsedRegs        int
	UsedNonVolatile int

	// Telemetry is this allocation's instrumentation snapshot; nil
	// unless Options.CollectTelemetry (or a TraceWriter) was set.
	Telemetry *telemetry.Snapshot
}

// SpillInstrs returns the total spill-code count the paper reports.
func (s *Stats) SpillInstrs() int { return s.SpillLoads + s.SpillStores }

const callerSaveTag = "csave"

// Run allocates registers for input with the given allocator,
// iterating spill rounds to completion, and returns the rewritten
// function (virtual registers replaced by physical ones, coalesced
// copies deleted, spill and caller-save code inserted) plus statistics.
// The input function is not modified. An allocator that implements
// Driver runs its own loop instead, once the context is checked.
func Run(input *ir.Func, machine *target.Machine, alloc Allocator, opts Options) (*ir.Func, *Stats, error) {
	if d, ok := alloc.(Driver); ok {
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		return d.Drive(input, machine, opts)
	}
	if err := ValidateInput(input, machine); err != nil {
		return nil, nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16
	}
	f := input.Clone()
	stats := &Stats{
		Allocator:   alloc.Name(),
		MovesBefore: f.CountOp(ir.Move),
	}
	var tel *telemetry.Collector
	var memBase, gcBase uint64
	if opts.telemetryOn() {
		tel = telemetry.New(opts.TraceWriter)
		tel.BeginFunc(f.Name)
		memBase, gcBase = telemetry.ReadMemCounters()
	}

	// The workspace supplies (and clears on borrow) every per-round
	// buffer below; a fresh one makes Run self-contained.
	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	sp := tel.Begin()
	rs := newRounds(ws, f, machine, opts, tel)
	tel.End(telemetry.PhaseBuildIG, sp)
	for round := 1; round <= maxRounds; round++ {
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		tel.BeginRound(round)
		ctx, err := rs.begin()
		if err != nil {
			return nil, nil, err
		}
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		res, err := alloc.Allocate(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("regalloc: %s round %d: %w", alloc.Name(), round, err)
		}
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		if !opts.SkipValidate {
			if err := CheckResult(ctx, res); err != nil {
				return nil, nil, fmt.Errorf("regalloc: %s round %d: %w", alloc.Name(), round, err)
			}
		}
		stats.Rounds = round
		if len(res.Spilled) == 0 {
			out, err := rewrite(ctx, res, stats)
			if err != nil {
				return nil, nil, err
			}
			if tel != nil {
				mem, gc := telemetry.ReadMemCounters()
				tel.AddMem(mem-memBase, gc-gcBase)
			}
			stats.Telemetry = tel.Snapshot()
			return out, stats, nil
		}
		spillSpan := tel.Begin()
		rs.spill(res, stats)
		tel.End(telemetry.PhaseSpill, spillSpan)
	}
	return nil, nil, fmt.Errorf("regalloc: %s did not converge in %d rounds", alloc.Name(), maxRounds)
}

// rounds carries one Run's function and analyses from spill round to
// spill round.
type rounds struct {
	ws    *Workspace
	f     *ir.Func
	m     *target.Machine
	opts  Options
	tel   *telemetry.Collector
	loops *cfg.LoopInfo

	// patchable is set when f's entry block has no predecessors, which
	// spill code keeps so: then every round after the first patches the
	// previous round's analyses instead of rebuilding them.
	patchable bool

	// ctx and info are the current round's context and numbering, nil
	// before round 1.
	ctx  *Context
	info *ig.RenumberInfo

	// tempRegs[v] and blockLocalRegs[v] mark virtual register v, in
	// the function's current numbering, as spill traffic and as a
	// block-local spill temporary.
	tempRegs       []bool
	blockLocalRegs []bool
}

// newRounds readies the round loop over f. Spill code only adds
// instructions and registers, never a block or an edge, so the
// dominator tree and loops computed here hold for every round.
func newRounds(ws *Workspace, f *ir.Func, m *target.Machine, opts Options, tel *telemetry.Collector) *rounds {
	return &rounds{
		ws: ws, f: f, m: m, opts: opts, tel: tel,
		loops:          cfg.FindLoops(f, cfg.NewDomTree(f)),
		patchable:      len(f.Blocks[0].Preds) == 0,
		tempRegs:       ws.tempRegs[:0],
		blockLocalRegs: ws.blockLocalRegs[:0],
	}
}

// begin renumbers f and builds the round's context. Round 1, and every
// round of a function whose entry block has predecessors, renumbers
// and analyzes from scratch; a later round patches the previous
// round's numbering, liveness, costs and graph at the spill sites
// (DESIGN.md §20), with the same result.
func (rs *rounds) begin() (*Context, error) {
	ws, f, prev := rs.ws, rs.f, rs.ctx
	patch := prev != nil && rs.patchable
	sp := rs.tel.Begin()
	var info *ig.RenumberInfo
	var err error
	if patch {
		info, err = ig.PatchRenumber(f, &ws.renumber, &ws.patch, prev.Graph.NumWebs(), ws.spillSeen)
	} else {
		info, err = ig.RenumberInto(f, &ws.renumber)
	}
	rs.tel.End(telemetry.PhaseRenumber, sp)
	if err != nil {
		return nil, err
	}
	ws.spillTemp = markOrigins(ws.spillTemp, info, rs.tempRegs)
	ws.blockLocal = markOrigins(ws.blockLocal, info, rs.blockLocalRegs)
	sp = rs.tel.Begin()
	var ctx *Context
	if patch {
		ctx = patchContext(ws, prev, f, ws.spillTemp)
	} else {
		ctx, err = newContext(ws, f, rs.m, ws.spillTemp, rs.loops)
	}
	rs.tel.End(telemetry.PhaseBuildIG, sp)
	if err != nil {
		return nil, err
	}
	ctx.Telemetry = rs.tel
	rs.ctx, rs.info = ctx, info
	return ctx, nil
}

// markOrigins sets dst[w], for every web w of info, when flags marks
// w's origin register, and returns dst.
func markOrigins(dst []bool, info *ig.RenumberInfo, flags []bool) []bool {
	dst = scratch.Slice(dst, info.NumWebs)
	for w, origins := range info.Origins {
		for _, o := range origins {
			if flagged(flags, o) {
				dst[w] = true
			}
		}
	}
	return dst
}

// spill inserts the spill code for the current round's spill set and
// flags the registers it makes for the next round.
func (rs *rounds) spill(res *Result, stats *Stats) {
	ws, f, opts := rs.ws, rs.f, rs.opts
	webs := expandSpills(ws, rs.ctx.Graph, res.Spilled)
	stats.SpilledWebs += len(webs)
	// Re-key the carried-over flags to this round's naming:
	// virtual-register numbers are reassigned by every renumber.
	// begin consumed the old flags, so refilling them in place is
	// safe.
	tempRegs := append(rs.tempRegs[:0], ws.spillTemp...)
	blockLocalRegs := append(rs.blockLocalRegs[:0], ws.blockLocal...)
	if opts.Rematerialize {
		var kept []int
		for _, w := range webs {
			if imm, ok := rematerializable(f, w); ok {
				stats.Remats++
				for _, t := range rematerialize(f, w, imm) {
					tempRegs = flag(tempRegs, t)
				}
			} else {
				kept = append(kept, w)
			}
		}
		webs = kept
	}
	if opts.BlockLocalSpills {
		var everywhere []int
		for _, w := range webs {
			if ws.blockLocal[w] {
				everywhere = append(everywhere, w)
				continue
			}
			for _, t := range insertBlockLocalSpill(f, w, &ws.spill) {
				blockLocalRegs = flag(blockLocalRegs, t)
			}
		}
		webs = everywhere
	}
	for _, t := range insertSpillCode(f, webs, &ws.spill) {
		tempRegs = flag(tempRegs, t)
	}
	rs.tempRegs, rs.blockLocalRegs = tempRegs, blockLocalRegs
	ws.tempRegs, ws.blockLocalRegs = tempRegs, blockLocalRegs
}

// flagged reports whether flags, indexed by virtual-register number,
// marks r.
func flagged(flags []bool, r ir.Reg) bool {
	return r.IsVirt() && r.VirtNum() < len(flags) && flags[r.VirtNum()]
}

// flag marks virtual register r in flags, growing it as needed.
func flag(flags []bool, r ir.Reg) []bool {
	if v := r.VirtNum(); v >= len(flags) {
		flags = append(flags, make([]bool, v+1-len(flags))...)
	}
	flags[r.VirtNum()] = true
	return flags
}

// spillScratch holds the tables the spill inserters borrow for one
// call: Run keeps one on its Workspace, InsertSpillEverywhere makes a
// fresh one. Nothing in it outlives the call.
type spillScratch struct {
	// index[v] is 1 + the position of virtual register v in the call's
	// spill list, or 0 when v is not spilled.
	index []int32
	// flow holds three rows per block of bits over the spill list:
	// read before written in the block, written in the block, and live
	// into the block.
	flow  []uint64
	extra []int // per block: spill instructions the block gains
	temps []ir.Reg
}

// spilled returns the spill-list position of r, or -1 when r is not a
// spilled web (registers made during the call lie past the table).
func (sc *spillScratch) spilled(r ir.Reg) int {
	if !r.IsVirt() || r.VirtNum() >= len(sc.index) {
		return -1
	}
	return int(sc.index[r.VirtNum()]) - 1
}

// mark fills the index table for webs over a function with numVirt
// virtual registers. A web listed twice keeps its last position.
func (sc *spillScratch) mark(webs []int, numVirt int) {
	sc.index = scratch.Slice(sc.index, numVirt)
	for i, w := range webs {
		sc.index[w] = int32(i + 1)
	}
}

// liveIntoEntry returns, as bits over spill-list positions 0..n-1,
// the spilled webs whose entry value is read: some path from the
// entry block reaches a use of the web before any definition of it
// (φ operands count as reads in their own block, as the spill code
// treats them). Such webs are legal input — the renumberer models
// undefined uses explicitly — but their spill slot has no dominating
// store, so the inserters must capture the (undefined) entry value the
// way they do for parameters; otherwise the reload before the
// upward-exposed use reads a slot no path has written, which the
// RunChecked oracle rightly rejects. This is liveness into the entry
// block, solved once for the whole spill list: the bits of every block
// are read before written, or live into a successor and not written.
// Parameters are live into entry too; callers exempt them.
func liveIntoEntry(f *ir.Func, sc *spillScratch, n int) []uint64 {
	words := bitset.Words(n)
	nb := len(f.Blocks)
	sc.flow = scratch.Slice(sc.flow, 3*nb*words)
	row := func(kind int, b ir.BlockID) []uint64 {
		at := (kind*nb + int(b)) * words
		return sc.flow[at : at+words]
	}
	for _, b := range f.Blocks {
		read, written := row(0, b.ID), row(1, b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, u := range in.Uses {
				if p := sc.spilled(u); p >= 0 && !bitset.Has(written, p) {
					bitset.Set(read, p)
				}
			}
			if p := sc.spilled(in.Def()); p >= 0 {
				bitset.Set(written, p)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			read, written, live := row(0, b.ID), row(1, b.ID), row(2, b.ID)
			for k := range live {
				var out uint64
				for _, s := range b.Succs {
					out |= row(2, s)[k]
				}
				if v := read[k] | out&^written[k]; v != live[k] {
					live[k] = v
					changed = true
				}
			}
		}
	}
	return row(2, 0)
}

// insertBlockLocalSpill splits spilled web w at block granularity:
// each block that touches w loads it at most once into a fresh
// block-local temporary and stores it back once before the block's
// terminator if it wrote it. Parameters — and webs whose entry value
// is read before any definition — are stored at entry first.
// It returns the block-local temporaries.
func insertBlockLocalSpill(f *ir.Func, w int, sc *spillScratch) []ir.Reg {
	r := ir.Virt(w)
	slot := f.NewSpillSlot()
	var temps []ir.Reg

	sc.mark([]int{w}, f.NumVirt)
	captureEntry := slices.Contains(f.Params, r) || bitset.Has(liveIntoEntry(f, sc, 1), 0)

	for _, b := range f.Blocks {
		touches := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Def() == r {
				touches = true
			}
			for _, u := range in.Uses {
				if u == r {
					touches = true
				}
			}
		}
		entryCapture := b.ID == 0 && captureEntry
		if !touches && !entryCapture {
			continue
		}

		t := f.NewReg()
		temps = append(temps, t)
		loaded, dirty := false, false
		out := make([]ir.Instr, 0, len(b.Instrs)+3)
		if entryCapture {
			// The incoming value arrives in the web's register;
			// capture it and mark memory stale until block exit.
			out = append(out, ir.MakeMove(t, r))
			loaded, dirty = true, true
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			usesW := false
			for _, u := range in.Uses {
				if u == r {
					usesW = true
				}
			}
			if usesW {
				if !loaded {
					out = append(out, ir.Instr{Op: ir.SpillLoad, Defs: []ir.Reg{t}, Imm: slot})
					loaded = true
				}
				for ui, u := range in.Uses {
					if u == r {
						in.Uses[ui] = t
					}
				}
			}
			// Calls end the temp's region: flush a dirty value before
			// the call and start a fresh temporary after it, so
			// block-local temporaries never cross call sites (which
			// would pin them against the volatile registers).
			if in.Op == ir.Call {
				if dirty {
					out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{t}, Imm: slot})
					dirty = false
				}
				defsW := in.Def() == r
				if defsW || loaded {
					t = f.NewReg()
					temps = append(temps, t)
				}
				loaded = false
				if defsW {
					in.Defs[0] = t
					loaded, dirty = true, true
				}
				out = append(out, in)
				continue
			}
			if in.Def() == r {
				in.Defs[0] = t
				loaded, dirty = true, true
			}
			out = append(out, in)
		}
		if dirty {
			store := ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{t}, Imm: slot}
			n := len(out)
			if n > 0 && out[n-1].Op.IsTerminator() {
				out = append(out[:n-1], store, out[n-1])
			} else {
				out = append(out, store)
			}
		}
		b.Instrs = out
	}
	return temps
}

// rematerializable reports whether web w's definitions are all the
// same constant load (and it is not a parameter, which has an
// implicit definition at entry).
func rematerializable(f *ir.Func, w int) (int64, bool) {
	r := ir.Virt(w)
	for _, p := range f.Params {
		if p == r {
			return 0, false
		}
	}
	var imm int64
	found := false
	ok := true
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Def() != r {
			return
		}
		if in.Op != ir.LoadImm {
			ok = false
			return
		}
		if found && in.Imm != imm {
			ok = false
			return
		}
		imm, found = in.Imm, true
	})
	return imm, ok && found
}

// rematerialize replaces every use of web w with a freshly loaded
// constant, dropping the now-dead original definitions, and returns
// the fresh single-use registers (which the driver marks unspillable).
func rematerialize(f *ir.Func, w int, imm int64) []ir.Reg {
	r := ir.Virt(w)
	var temps []ir.Reg
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Def() == r && in.Op == ir.LoadImm {
				continue // dead original definition
			}
			usesW := false
			for _, u := range in.Uses {
				if u == r {
					usesW = true
				}
			}
			if usesW {
				t := f.NewReg()
				temps = append(temps, t)
				out = append(out, ir.MakeLoadImm(t, imm))
				for ui, u := range in.Uses {
					if u == r {
						in.Uses[ui] = t
					}
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return temps
}

// expandSpills resolves spilled node ids to the set of web indices to
// spill: a coalescing representative expands to all of its members.
// The list is built in ws and valid until the next round.
func expandSpills(ws *Workspace, g *ig.Graph, spilled []ig.NodeID) []int {
	ws.spillSeen = scratch.Slice(ws.spillSeen, g.NumWebs())
	out := ws.spillWebs[:0]
	add := func(n ig.NodeID) {
		if g.IsPhys(n) {
			return
		}
		w := int(n) - g.NumPhys()
		if !ws.spillSeen[w] {
			ws.spillSeen[w] = true
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
	ws.spillWebs = out
	return out
}

// InsertSpillEverywhere inserts spill-everywhere code for the given
// webs (distinct virtual-register numbers): a store follows every
// definition (and function entry, for parameters and webs whose entry
// value is read before any definition), and every use reads a fresh
// temporary loaded just before it. It returns the spilled webs
// themselves (whose remaining live ranges are now tiny) followed by
// the fresh temporaries, all of which must never be spilled again; the
// slice is the caller's. The driver uses it for every round's spill
// set; it is exported for allocators with their own driver loop (the
// linear-scan fast tier).
func InsertSpillEverywhere(f *ir.Func, webs []int) []ir.Reg {
	return insertSpillCode(f, webs, &spillScratch{})
}

// regPair maps one spilled web to the temporary an instruction reads
// it through.
type regPair struct{ web, temp ir.Reg }

// insertSpillCode is InsertSpillEverywhere on sc's tables; the
// returned slice is sc's. Web i of the list gets the i-th new spill
// slot. It counts first and then fills: only blocks that reference a
// spilled web are rebuilt, each into a new array of its final size,
// and every spill instruction's one-register operand is cut,
// cap-limited, from one register array per call.
func insertSpillCode(f *ir.Func, webs []int, sc *spillScratch) []ir.Reg {
	sc.mark(webs, f.NumVirt)
	firstSlot := int64(f.NumSpillSlots)
	f.NumSpillSlots += len(webs)
	slotOf := func(p int) int64 { return firstSlot + int64(p) }

	// Entry stores: spilled parameters in parameter order, then the
	// other webs whose entry value is read, in list order.
	live := liveIntoEntry(f, sc, len(webs))
	var entry []ir.Reg
	for _, p := range f.Params {
		if s := sc.spilled(p); s >= 0 {
			entry = append(entry, p)
			bitset.Clear(live, s)
		}
	}
	for _, w := range webs {
		if r := ir.Virt(w); bitset.Has(live, sc.spilled(r)) {
			entry = append(entry, r)
		}
	}

	// Count: one load per distinct spilled use of an instruction, one
	// store per spilled definition.
	sc.extra = scratch.Slice(sc.extra, len(f.Blocks))
	sc.extra[0] = len(entry)
	total := 0
	for _, b := range f.Blocks {
		n := sc.extra[b.ID]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for ui, u := range in.Uses {
				if sc.spilled(u) >= 0 && !slices.Contains(in.Uses[:ui], u) {
					n++
				}
			}
			if sc.spilled(in.Def()) >= 0 {
				n++
			}
		}
		sc.extra[b.ID] = n
		total += n
	}
	regs := make([]ir.Reg, total)
	operand := func(r ir.Reg) []ir.Reg {
		regs[0] = r
		op := regs[:1:1]
		regs = regs[1:]
		return op
	}

	temps := sc.temps[:0]
	for i, w := range webs {
		if sc.spilled(ir.Virt(w)) == i {
			temps = append(temps, ir.Virt(w))
		}
	}
	var pairs [8]regPair
	for _, b := range f.Blocks {
		extra := sc.extra[b.ID]
		if extra == 0 {
			continue
		}
		// Each block gets its own array, so a rebuilt block's old array
		// dies with it instead of pinning its neighbours'.
		out := make([]ir.Instr, 0, len(b.Instrs)+extra)
		if b.ID == 0 {
			for _, r := range entry {
				out = append(out, ir.Instr{Op: ir.SpillStore, Uses: operand(r), Imm: slotOf(sc.spilled(r))})
			}
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			rep := pairs[:0]
			for ui, u := range in.Uses {
				p := sc.spilled(u)
				if p < 0 {
					continue
				}
				t := ir.NoReg
				for _, pr := range rep {
					if pr.web == u {
						t = pr.temp
						break
					}
				}
				if t == ir.NoReg {
					t = f.NewReg()
					rep = append(rep, regPair{u, t})
					temps = append(temps, t)
					out = append(out, ir.Instr{Op: ir.SpillLoad, Defs: operand(t), Imm: slotOf(p)})
				}
				in.Uses[ui] = t
			}
			out = append(out, in)
			if d := in.Def(); sc.spilled(d) >= 0 {
				out = append(out, ir.Instr{Op: ir.SpillStore, Uses: operand(d), Imm: slotOf(sc.spilled(d))})
			}
		}
		b.Instrs = out
	}
	sc.temps = temps
	return temps
}

// rewrite maps the colored function onto physical registers: it
// resolves every web's color through the graph's coalescing aliases
// and hands the dense color table to RewriteColored.
func rewrite(ctx *Context, res *Result, stats *Stats) (*ir.Func, error) {
	f, g := ctx.F, ctx.Graph
	var colors []int
	if ws := ctx.Workspace; ws != nil {
		ws.colors = scratch.Slice(ws.colors, f.NumVirt)
		colors = ws.colors
	} else {
		colors = make([]int, f.NumVirt)
	}
	for w := 0; w < f.NumVirt; w++ {
		c, ok := res.ColorOf(g, g.NodeOf(ir.Virt(w)))
		if !ok {
			return nil, fmt.Errorf("regalloc: web v%d has no color at rewrite", w)
		}
		colors[w] = c
	}
	return RewriteColored(f, ctx.Machine, ctx.Live, colors, stats)
}

// RewriteColored maps a fully colored function onto physical
// registers, in place: caller saves are inserted around calls for
// volatile-resident values, every virtual register w is replaced by
// physical register colors[w], copies made redundant by the
// assignment are deleted, and the rewrite statistics (moves, spill
// code, caller saves, register usage) are recorded on stats. live
// must be current for f. The driver calls it with graph-resolved
// colors; allocators with their own driver loop (the linear-scan fast
// tier) call it directly.
//
// live may be nil only when the caller guarantees no value colored
// volatile is live across any call — then the caller-save scan has
// nothing to find and is skipped. The linear-scan fast path earns
// this by construction: its clobber masks forbid volatile registers
// to every web live across a call.
func RewriteColored(f *ir.Func, m *target.Machine, live *liveness.Info, colors []int, stats *Stats) (*ir.Func, error) {
	// Caller-save insertion: per call, the webs assigned volatile
	// registers that live across it are stored before the call and
	// reloaded after it. The scan meets a block's calls last to first
	// and each call's webs in ascending order.
	type savePoint struct {
		idx  int
		webs []int
	}
	var pts []savePoint
	// saveSlot[w] is web w's caller-save slot, or -1; it is made when
	// the first save is.
	var saveSlot []int64
	for _, b := range f.Blocks {
		if live == nil {
			break
		}
		pts = pts[:0]
		live.ForEachInstrReverse(b, func(i int, in *ir.Instr, liveAfter []uint64) {
			if in.Op != ir.Call {
				return
			}
			var webs []int
			def := int(in.Def())
			for r := bitset.Next(liveAfter, int(ir.FirstVirtual)); r >= 0; r = bitset.Next(liveAfter, r+1) {
				if w := r - int(ir.FirstVirtual); r != def && m.IsVolatile(colors[w]) {
					webs = append(webs, w)
				}
			}
			if len(webs) > 0 {
				pts = append(pts, savePoint{idx: i, webs: webs})
			}
		})
		if len(pts) == 0 {
			continue
		}
		next := len(pts) - 1 // the cursor: pts runs last call first
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			var webs []int
			if next >= 0 && pts[next].idx == i {
				webs = pts[next].webs
				next--
			}
			if len(webs) > 0 && saveSlot == nil {
				saveSlot = scratch.Fill[int64](nil, len(colors), -1)
			}
			for _, w := range webs {
				s := saveSlot[w]
				if s < 0 {
					s = f.NewSpillSlot()
					saveSlot[w] = s
				}
				out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{ir.Virt(w)}, Imm: s, Sym: callerSaveTag})
				stats.CallerSaveStores++
			}
			out = append(out, b.Instrs[i])
			for _, w := range webs {
				out = append(out, ir.Instr{Op: ir.SpillLoad, Defs: []ir.Reg{ir.Virt(w)}, Imm: saveSlot[w], Sym: callerSaveTag})
				stats.CallerSaveLoads++
			}
		}
		b.Instrs = out
	}

	// Map webs to physical registers, marking each register used.
	usedRegs := make([]uint64, bitset.Words(m.NumRegs))
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		for di, d := range in.Defs {
			if d.IsVirt() {
				in.Defs[di] = ir.Phys(colors[d.VirtNum()])
				bitset.Set(usedRegs, colors[d.VirtNum()])
			}
		}
		for ui, u := range in.Uses {
			if u.IsVirt() {
				in.Uses[ui] = ir.Phys(colors[u.VirtNum()])
				bitset.Set(usedRegs, colors[u.VirtNum()])
			}
		}
	})
	for i, p := range f.Params {
		if p.IsVirt() {
			f.Params[i] = ir.Phys(colors[p.VirtNum()])
		}
	}

	// Delete copies the assignment made redundant.
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.IsCopy() && in.Defs[0] == in.Uses[0] {
			*in = ir.Instr{Op: ir.Nop}
		}
	})
	f.CompactNops()
	f.NumVirt = 0

	stats.MovesRemaining = f.CountOp(ir.Move)
	stats.MovesEliminated = stats.MovesBefore - stats.MovesRemaining
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		switch {
		case in.Op == ir.SpillLoad && in.Sym != callerSaveTag:
			stats.SpillLoads++
		case in.Op == ir.SpillStore && in.Sym != callerSaveTag:
			stats.SpillStores++
		}
	})
	for r := bitset.Next(usedRegs, 0); r >= 0; r = bitset.Next(usedRegs, r+1) {
		stats.UsedRegs++
		if !m.IsVolatile(r) {
			stats.UsedNonVolatile++
		}
	}
	if err := ir.Validate(f); err != nil {
		return nil, fmt.Errorf("regalloc: rewrite produced invalid IR: %w", err)
	}
	return f, nil
}
