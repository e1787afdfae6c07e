package regalloc

import (
	"fmt"

	"prefcolor/internal/costmodel"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/target"
)

// This file is the end-to-end allocation validity oracle: an
// independent checker that re-derives, from first principles, what a
// correct allocation must look like, and fails loudly when the driver
// output disagrees. The per-round CheckResult validates each coloring
// against its own round's graph; the oracle instead captures the final
// round's function and assignment on the way past and then audits the
// rewritten output as a whole — register ranges, interference,
// sequential-pair legality, limited-usage accounting, calling
// convention, spill-slot dataflow, statistics identities, and
// observable behavior. Tests run allocators through RunChecked instead
// of Run to get every check for free.

// capturingAllocator wraps an Allocator and snapshots the final
// round's context, pre-rewrite function, and result. The driver's
// rewrite mutates ctx.F in place after the last Allocate call, so the
// function must be cloned at capture time.
type capturingAllocator struct {
	inner Allocator
	ctx   *Context
	preF  *ir.Func
	res   *Result
}

func (c *capturingAllocator) Name() string { return c.inner.Name() }

func (c *capturingAllocator) Allocate(ctx *Context) (*Result, error) {
	res, err := c.inner.Allocate(ctx)
	if err == nil && len(res.Spilled) == 0 {
		// Final round: no spills means the driver rewrites next.
		c.ctx, c.preF, c.res = ctx, ctx.F.Clone(), res
	}
	return res, err
}

// RunChecked is Run followed by the full oracle audit. It returns the
// driver's output unchanged; any check failure surfaces as an error
// prefixed "oracle:". A Driver audits itself: RunChecked runs it with
// validation forced on.
func RunChecked(input *ir.Func, m *target.Machine, alloc Allocator, opts Options) (*ir.Func, *Stats, error) {
	if _, ok := alloc.(Driver); ok {
		opts.SkipValidate = false
		return Run(input, m, alloc, opts)
	}
	cap := &capturingAllocator{inner: alloc}
	out, stats, err := Run(input, m, cap, opts)
	if err != nil {
		return nil, nil, err
	}
	if cap.ctx == nil {
		return nil, nil, fmt.Errorf("oracle: driver returned without a final round")
	}
	if err := CheckAllocation(input, out, stats, m, cap.ctx, cap.preF, cap.res); err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// CheckAllocation runs every oracle check against one completed
// allocation. ctx, preF, and res are the final round's context, the
// pre-rewrite clone of its function, and its coloring.
func CheckAllocation(input, out *ir.Func, stats *Stats, m *target.Machine, ctx *Context, preF *ir.Func, res *Result) error {
	if err := checkPhysOnly(out, m); err != nil {
		return err
	}
	if err := checkInterference(ctx, res); err != nil {
		return err
	}
	if err := checkPairs(out, m, ctx, preF, res); err != nil {
		return err
	}
	if err := checkLimits(out, m, ctx, preF, res); err != nil {
		return err
	}
	if err := checkCallConvention(preF, out); err != nil {
		return err
	}
	if err := checkSpillSlots(out); err != nil {
		return err
	}
	if err := checkStatsIdentities(out, stats); err != nil {
		return err
	}
	return checkSemantics(input, out, m)
}

// checkPhysOnly requires fully-lowered output: no virtual registers
// anywhere and every physical register inside the machine's file.
func checkPhysOnly(out *ir.Func, m *target.Machine) error {
	var bad error
	note := func(b *ir.Block, i int, r ir.Reg) {
		if bad != nil {
			return
		}
		if r.IsVirt() {
			bad = fmt.Errorf("oracle: virtual register %v survives at b%d[%d]", r, b.ID, i)
		} else if r.IsPhys() && r.PhysNum() >= m.NumRegs {
			bad = fmt.Errorf("oracle: register %v out of range (machine has %d) at b%d[%d]", r, m.NumRegs, b.ID, i)
		}
	}
	out.ForEachInstr(func(b *ir.Block, i int, in *ir.Instr) {
		for _, d := range in.Defs {
			note(b, i, d)
		}
		for _, u := range in.Uses {
			note(b, i, u)
		}
	})
	if bad != nil {
		return bad
	}
	for _, p := range out.Params {
		if p.IsVirt() || (p.IsPhys() && p.PhysNum() >= m.NumRegs) {
			return fmt.Errorf("oracle: parameter %v not a machine register", p)
		}
	}
	return nil
}

// checkInterference re-validates the final coloring against the
// original (pre-coalescing) adjacency, independently of the driver's
// optional CheckResult pass: every web colored, in range, and no
// original interference edge monochrome.
func checkInterference(ctx *Context, res *Result) error {
	g, k := ctx.Graph, ctx.K()
	color := make([]int, g.NumNodes())
	for i := 0; i < g.NumPhys(); i++ {
		color[i] = i
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		c, ok := res.ColorOf(g, n)
		if !ok {
			return fmt.Errorf("oracle: web v%d uncolored in the final round", w)
		}
		if c < 0 || c >= k {
			return fmt.Errorf("oracle: web v%d colored out of range: r%d", w, c)
		}
		color[n] = c
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		for _, nb := range g.OrigNeighbors(n) {
			if color[nb] == color[n] {
				return fmt.Errorf("oracle: interfering %v and %v share r%d",
					g.RegOf(n), g.RegOf(nb), color[n])
			}
		}
	}
	return nil
}

// colorOfReg resolves a pre-rewrite operand to its final register.
func colorOfReg(ctx *Context, res *Result, r ir.Reg) (int, bool) {
	if r.IsPhys() {
		return r.PhysNum(), true
	}
	if !r.IsVirt() {
		return -1, false
	}
	return res.ColorOf(ctx.Graph, ctx.Graph.NodeOf(r))
}

// checkPairs requires the output cost model to recognize at least as
// many fused paired loads as the assignment honors: a pre-rewrite
// paired-load candidate whose destinations landed on distinct,
// PairOK registers (and off the base register, mirroring the
// estimator's screen) stays adjacent through the rewrite — copy
// deletion only removes instructions and caller saves only wrap calls
// — so it must be fused in the output.
func checkPairs(out *ir.Func, m *target.Machine, ctx *Context, preF *ir.Func, res *Result) error {
	pairs := costmodel.FindLoadPairs(preF, m, ctx.Loops)
	if len(pairs) == 0 {
		return nil
	}
	honored := 0
	for _, p := range pairs {
		base := preF.Blocks[p.Block].Instrs[p.I1].Uses[0]
		c1, ok1 := colorOfReg(ctx, res, p.Dst1)
		c2, ok2 := colorOfReg(ctx, res, p.Dst2)
		cb, okb := colorOfReg(ctx, res, base)
		if !ok1 || !ok2 || !okb {
			continue
		}
		if c1 != c2 && c1 != cb && m.PairOK(c1, c2) {
			honored++
		}
	}
	est := perfmodel.Estimate(out, m)
	if est.FusedPairs < honored {
		return fmt.Errorf("oracle: assignment honors %d sequential pairs but output fuses only %d",
			honored, est.FusedPairs)
	}
	return nil
}

// checkLimits requires limited-register-usage accounting to be
// consistent end to end: limit sites survive the rewrite one-for-one
// (no machine limits constrain copies or spill ops), so the honored
// and violated counts recomputed from the final colors must equal what
// the estimator sees in the output.
func checkLimits(out *ir.Func, m *target.Machine, ctx *Context, preF *ir.Func, res *Result) error {
	if len(m.Limits) == 0 {
		return nil
	}
	for li := range m.Limits {
		switch m.Limits[li].Op {
		case ir.Move, ir.Nop, ir.SpillLoad, ir.SpillStore:
			// Rewrite and caller-save insertion change these ops'
			// instruction counts, breaking the 1:1 site mapping.
			return nil
		}
	}
	wantHonored, wantViolated := 0, 0
	for _, site := range costmodel.FindLimitSites(preF, m, ctx.Loops) {
		c, ok := colorOfReg(ctx, res, site.Reg)
		if !ok {
			continue
		}
		allowed := false
		for _, a := range site.Allowed {
			if a == c {
				allowed = true
				break
			}
		}
		if allowed {
			wantHonored++
		} else {
			wantViolated++
		}
	}
	est := perfmodel.Estimate(out, m)
	if est.LimitsHonored != wantHonored || est.LimitViolations != wantViolated {
		return fmt.Errorf("oracle: limit accounting mismatch: colors say %d honored/%d violated, output has %d/%d",
			wantHonored, wantViolated, est.LimitsHonored, est.LimitViolations)
	}
	return nil
}

// callSites lists a function's calls in program order.
func callSites(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Op == ir.Call {
			out = append(out, in)
		}
	})
	return out
}

// checkCallConvention requires every dedicated-register constraint of
// the calling convention to hold: calls survive the rewrite in order,
// and an argument or result that convention lowering pinned to a
// physical register before allocation must sit in that same register
// afterwards.
func checkCallConvention(preF, out *ir.Func) error {
	pre, post := callSites(preF), callSites(out)
	if len(pre) != len(post) {
		return fmt.Errorf("oracle: rewrite changed call count: %d -> %d", len(pre), len(post))
	}
	for i, a := range pre {
		b := post[i]
		if a.Sym != b.Sym || len(a.Uses) != len(b.Uses) || len(a.Defs) != len(b.Defs) {
			return fmt.Errorf("oracle: call %d changed shape: %v -> %v", i, a, b)
		}
		for j, u := range a.Uses {
			if u.IsPhys() && b.Uses[j] != u {
				return fmt.Errorf("oracle: call %d argument %d moved off dedicated %v to %v", i, j, u, b.Uses[j])
			}
		}
		for j, d := range a.Defs {
			if d.IsPhys() && b.Defs[j] != d {
				return fmt.Errorf("oracle: call %d result moved off dedicated %v to %v", i, d, b.Defs[j])
			}
		}
	}
	return nil
}

// checkSpillSlots runs a definite-write forward dataflow over the
// output: along every path, a SpillLoad may only read a slot some
// SpillStore has already written. The interpreter defaults unwritten
// slots to zero, so semantic comparison alone would miss a misplaced
// reload whose garbage value happens not to matter; this structural
// check does not.
func checkSpillSlots(out *ir.Func) error {
	n := out.NumSpillSlots
	if n == 0 {
		return nil
	}
	// written[b][s]: slot s definitely written at entry of block b.
	// Must-analysis: meet is intersection, so non-entry blocks start
	// optimistically full.
	written := make([][]bool, len(out.Blocks))
	for i := range written {
		written[i] = make([]bool, n)
		if i != 0 {
			for s := range written[i] {
				written[i][s] = true
			}
		}
	}
	transfer := func(b *ir.Block, in []bool, report bool) ([]bool, error) {
		cur := append([]bool(nil), in...)
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			switch ins.Op {
			case ir.SpillLoad:
				if s := ins.Imm; report && (s < 0 || s >= int64(n) || !cur[s]) {
					return nil, fmt.Errorf("oracle: b%d[%d] reloads spill slot %d before any store on some path", b.ID, i, s)
				}
			case ir.SpillStore:
				if s := ins.Imm; s >= 0 && s < int64(n) {
					cur[s] = true
				}
			}
		}
		return cur, nil
	}
	for changed := true; changed; {
		changed = false
		for _, b := range out.Blocks {
			in := written[b.ID]
			o, _ := transfer(b, in, false)
			for _, s := range b.Succs {
				for i := range written[s] {
					if written[s][i] && !o[i] {
						written[s][i] = false
						changed = true
					}
				}
			}
		}
	}
	for _, b := range out.Blocks {
		if _, err := transfer(b, written[b.ID], true); err != nil {
			return err
		}
	}
	return nil
}

// checkStatsIdentities cross-checks the reported statistics against a
// recount of the output.
func checkStatsIdentities(out *ir.Func, stats *Stats) error {
	if stats.MovesBefore != stats.MovesEliminated+stats.MovesRemaining {
		return fmt.Errorf("oracle: move identity broken: %d before != %d eliminated + %d remaining",
			stats.MovesBefore, stats.MovesEliminated, stats.MovesRemaining)
	}
	if got := out.CountOp(ir.Move); got != stats.MovesRemaining {
		return fmt.Errorf("oracle: output has %d moves, stats say %d remain", got, stats.MovesRemaining)
	}
	loads, stores := 0, 0
	out.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) {
		switch {
		case in.Op == ir.SpillLoad && in.Sym != callerSaveTag:
			loads++
		case in.Op == ir.SpillStore && in.Sym != callerSaveTag:
			stores++
		case in.Op == ir.SpillLoad:
			// caller-save reload
		}
	})
	if loads != stats.SpillLoads || stores != stats.SpillStores {
		return fmt.Errorf("oracle: output has %d/%d spill loads/stores, stats say %d/%d",
			loads, stores, stats.SpillLoads, stats.SpillStores)
	}
	return nil
}

// checkSemantics interprets input and output under call-clobbering
// semantics on two parameter bases and requires identical observable
// behavior: return value and the full store trace.
func checkSemantics(input, out *ir.Func, m *target.Machine) error {
	opts := ir.InterpOptions{CallClobbers: m.CallClobbers()}
	for _, base := range []int64{0, 3} {
		init, outInit := map[ir.Reg]int64{}, map[ir.Reg]int64{}
		for i, p := range input.Params {
			init[p] = base + int64(i)
			outInit[out.Params[i]] = base + int64(i)
		}
		a, err := ir.Interp(input, init, opts)
		if err != nil {
			// The input failing to execute (a non-terminating program,
			// typically) is not an allocation defect; the structural
			// checks have already run, so skip the behavioral one.
			return nil
		}
		b, err := ir.Interp(out, outInit, opts)
		if err != nil {
			return fmt.Errorf("oracle: interpreting output: %w", err)
		}
		if a.HasRet != b.HasRet || a.Ret != b.Ret {
			return fmt.Errorf("oracle: base %d: return differs: input (%v, %d) output (%v, %d)",
				base, a.HasRet, a.Ret, b.HasRet, b.Ret)
		}
		if len(a.Stores) != len(b.Stores) {
			return fmt.Errorf("oracle: base %d: store count differs: %d vs %d", base, len(a.Stores), len(b.Stores))
		}
		for i := range a.Stores {
			if a.Stores[i] != b.Stores[i] {
				return fmt.Errorf("oracle: base %d: store %d differs: %+v vs %+v", base, i, a.Stores[i], b.Stores[i])
			}
		}
	}
	return nil
}
