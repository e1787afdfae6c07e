package regalloc

import (
	"context"
	"fmt"
	"io"

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
	if ws.tempRegs == nil {
		ws.tempRegs = map[ir.Reg]bool{}
		ws.blockLocalRegs = map[ir.Reg]bool{}
	}
	tempRegs := ws.tempRegs
	blockLocalRegs := ws.blockLocalRegs
	clear(tempRegs)
	clear(blockLocalRegs)
	for round := 1; round <= maxRounds; round++ {
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		tel.BeginRound(round)
		sp := tel.Begin()
		info, err := ig.RenumberInto(f, &ws.renumber)
		tel.End(telemetry.PhaseRenumber, sp)
		if err != nil {
			return nil, nil, err
		}
		ws.spillTemp = scratch.Slice(ws.spillTemp, info.NumWebs)
		ws.blockLocal = scratch.Slice(ws.blockLocal, info.NumWebs)
		spillTemp := ws.spillTemp
		blockLocal := ws.blockLocal
		for w, origins := range info.Origins {
			for _, o := range origins {
				if tempRegs[o] {
					spillTemp[w] = true
				}
				if blockLocalRegs[o] {
					blockLocal[w] = true
				}
			}
		}
		sp = tel.Begin()
		ctx, err := NewContextIn(ws, f, machine, spillTemp)
		tel.End(telemetry.PhaseBuildIG, sp)
		if err != nil {
			return nil, nil, err
		}
		if err := opts.interrupted(alloc.Name()); err != nil {
			return nil, nil, err
		}
		ctx.Telemetry = tel
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
		webs := expandSpills(ctx.Graph, res.Spilled)
		stats.SpilledWebs += len(webs)
		// Re-key the carried-over marker sets to this round's naming:
		// virtual-register numbers are reassigned by every renumber.
		// The old keys were fully consumed by the Origins loop above,
		// so clearing and refilling the maps in place is safe.
		clear(tempRegs)
		for w, isTemp := range spillTemp {
			if isTemp {
				tempRegs[ir.Virt(w)] = true
			}
		}
		clear(blockLocalRegs)
		for w, isLocal := range blockLocal {
			if isLocal {
				blockLocalRegs[ir.Virt(w)] = true
			}
		}
		if opts.Rematerialize {
			var kept []int
			for _, w := range webs {
				if imm, ok := rematerializable(f, w); ok {
					stats.Remats++
					for _, t := range rematerialize(f, w, imm) {
						tempRegs[t] = true
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
				if blockLocal[w] {
					everywhere = append(everywhere, w)
					continue
				}
				for _, t := range insertBlockLocalSpill(f, w) {
					blockLocalRegs[t] = true
				}
			}
			webs = everywhere
		}
		for _, t := range insertSpillCode(f, webs) {
			tempRegs[t] = true
		}
		tel.End(telemetry.PhaseSpill, spillSpan)
	}
	return nil, nil, fmt.Errorf("regalloc: %s did not converge in %d rounds", alloc.Name(), maxRounds)
}

// readBeforeWritten reports whether some path from entry reaches a
// use of r before any definition of it. Such webs are legal input —
// the renumberer models undefined uses explicitly — but their spill
// slot has no dominating store, so the spill inserters must also
// capture the (undefined) entry value the way they do for parameters;
// otherwise the reload before the upward-exposed use reads a slot no
// path has written, which the RunChecked oracle rightly rejects for
// every defined web. Parameters are defined at entry by the caller
// and are never reported.
func readBeforeWritten(f *ir.Func, r ir.Reg) bool {
	for _, p := range f.Params {
		if p == r {
			return false
		}
	}
	// DFS over paths on which r is still undefined: a block defining r
	// kills the path; a use of r before a def inside a live block is a
	// read of the undefined entry value.
	seen := make([]bool, len(f.Blocks))
	stack := []ir.BlockID{0}
	seen[0] = true
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		defined := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, u := range in.Uses {
				if u == r {
					return true
				}
			}
			if in.Def() == r {
				defined = true
				break
			}
		}
		if defined {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// insertBlockLocalSpill splits spilled web w at block granularity:
// each block that touches w loads it at most once into a fresh
// block-local temporary and stores it back once before the block's
// terminator if it wrote it. Parameters — and webs whose entry value
// is read before any definition — are stored at entry first.
// It returns the block-local temporaries.
func insertBlockLocalSpill(f *ir.Func, w int) []ir.Reg {
	r := ir.Virt(w)
	slot := f.NewSpillSlot()
	var temps []ir.Reg

	isParam := false
	for _, p := range f.Params {
		if p == r {
			isParam = true
		}
	}
	captureEntry := isParam || readBeforeWritten(f, r)

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

// InsertSpillEverywhere inserts spill-everywhere code for the given
// webs (virtual-register numbers): a store follows every definition
// (and function entry, for parameters and webs whose entry value is
// read before any definition), and every use reads a fresh temporary
// loaded just before it. It returns the fresh temporaries plus the
// spilled webs themselves (whose remaining live ranges are now tiny),
// all of which must never be spilled again. The driver uses it for
// every round's spill set; it is exported for allocators with their
// own driver loop (the linear-scan fast tier).
func InsertSpillEverywhere(f *ir.Func, webs []int) []ir.Reg {
	return insertSpillCode(f, webs)
}

// insertSpillCode splits each spilled web: a store follows every
// definition (and function entry, for parameters and webs whose entry
// value is read before any definition), and every use reads a fresh
// temporary loaded just before it. It returns the fresh temporaries
// plus the spilled webs themselves (whose remaining live ranges are
// now tiny), all of which must never be spilled again.
func insertSpillCode(f *ir.Func, webs []int) []ir.Reg {
	slot := map[ir.Reg]int64{}
	var entryStores []ir.Reg
	for _, w := range webs {
		r := ir.Virt(w)
		slot[r] = f.NewSpillSlot()
		if readBeforeWritten(f, r) {
			entryStores = append(entryStores, r)
		}
	}
	var temps []ir.Reg
	for r := range slot {
		temps = append(temps, r)
	}

	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		if b.ID == 0 {
			for _, p := range f.Params {
				if s, ok := slot[p]; ok {
					out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{p}, Imm: s})
				}
			}
			for _, r := range entryStores {
				out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{r}, Imm: slot[r]})
			}
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			// Allocated lazily: most instructions touch no spilled web,
			// and a map per instruction is measurable on the fast path.
			var replaced map[ir.Reg]ir.Reg
			for ui, u := range in.Uses {
				s, ok := slot[u]
				if !ok {
					continue
				}
				t, dup := replaced[u]
				if !dup {
					t = f.NewReg()
					if replaced == nil {
						replaced = map[ir.Reg]ir.Reg{}
					}
					replaced[u] = t
					temps = append(temps, t)
					out = append(out, ir.Instr{Op: ir.SpillLoad, Defs: []ir.Reg{t}, Imm: s})
				}
				in.Uses[ui] = t
			}
			out = append(out, in)
			if d := in.Def(); d.Valid() {
				if s, ok := slot[d]; ok {
					out = append(out, ir.Instr{Op: ir.SpillStore, Uses: []ir.Reg{d}, Imm: s})
				}
			}
		}
		b.Instrs = out
	}
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
	// Caller-save insertion: find, per call, the webs assigned
	// volatile registers that live across it.
	type savePoint struct {
		idx  int
		webs []int
	}
	saves := map[ir.BlockID][]savePoint{}
	for _, b := range f.Blocks {
		if live == nil {
			break
		}
		live.ForEachInstrReverse(b, func(i int, in *ir.Instr, liveAfter ir.RegSet) {
			if in.Op != ir.Call {
				return
			}
			var webs []int
			for r := range liveAfter {
				if !r.IsVirt() || r == in.Def() {
					continue
				}
				if m.IsVolatile(colors[r.VirtNum()]) {
					webs = append(webs, r.VirtNum())
				}
			}
			if len(webs) > 0 {
				sortInts(webs)
				saves[b.ID] = append(saves[b.ID], savePoint{idx: i, webs: webs})
			}
		})
	}
	saveSlot := map[int]int64{}
	for _, b := range f.Blocks {
		pts := saves[b.ID]
		if len(pts) == 0 {
			continue
		}
		byIdx := map[int][]int{}
		for _, p := range pts {
			byIdx[p.idx] = p.webs
		}
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			webs := byIdx[i]
			for _, w := range webs {
				s, ok := saveSlot[w]
				if !ok {
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

	// Map webs to physical registers.
	usedRegs := map[int]bool{}
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		for di, d := range in.Defs {
			if d.IsVirt() {
				in.Defs[di] = ir.Phys(colors[d.VirtNum()])
				usedRegs[colors[d.VirtNum()]] = true
			}
		}
		for ui, u := range in.Uses {
			if u.IsVirt() {
				in.Uses[ui] = ir.Phys(colors[u.VirtNum()])
				usedRegs[colors[u.VirtNum()]] = true
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
	for r := range usedRegs {
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

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
