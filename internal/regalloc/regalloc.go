// Package regalloc is the shared register-allocation framework: the
// per-round Context handed to every allocator, the Result contract,
// assignment validation, and the driver that iterates
// renumber → build → allocate → spill-code insertion to a fixed point
// and finally rewrites the function onto physical registers.
package regalloc

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/cfg"
	"prefcolor/internal/costmodel"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
)

// InfiniteCost marks spill temporaries: live ranges the spiller just
// created, which must never be chosen for spilling again.
const InfiniteCost = 1e18

// Context is one allocation round's view of the function: renumbered
// code plus every analysis the allocators consume.
type Context struct {
	F       *ir.Func
	Machine *target.Machine
	Graph   *ig.Graph
	Loops   *cfg.LoopInfo
	Live    *liveness.Info
	Costs   *costmodel.Info

	// SpillTemp[w] marks web w as allocator-created spill traffic.
	SpillTemp []bool

	// Telemetry is the round's instrumentation collector; nil (the
	// common case) disables collection, and every collector method is
	// nil-safe, so allocators thread it unconditionally. Telemetry
	// observes only — it must never steer an allocation decision.
	Telemetry *telemetry.Collector

	// Workspace is the scratch arena this context was built in, or nil
	// for a one-shot context. Allocators may park reusable buffers on
	// it via SetAllocatorScratch; they must tolerate it being nil.
	Workspace *Workspace
}

// NewContext runs the standard analyses over a renumbered function.
// spillTemp may be nil.
func NewContext(f *ir.Func, m *target.Machine, spillTemp []bool) (*Context, error) {
	return NewContextIn(nil, f, m, spillTemp)
}

// NewContextIn is NewContext with the analyses computed into ws's
// reusable buffers (nil ws allocates fresh). Either way the liveness
// solution is computed once and shared by the cost model and the
// graph builder.
func NewContextIn(ws *Workspace, f *ir.Func, m *target.Machine, spillTemp []bool) (*Context, error) {
	return newContext(ws, f, m, spillTemp, cfg.FindLoops(f, cfg.NewDomTree(f)))
}

// newContext is NewContextIn with the loop analysis supplied. Spill
// code never adds or removes a block or an edge, so Run computes the
// dominator tree and loops once and passes them to every round.
func newContext(ws *Workspace, f *ir.Func, m *target.Machine, spillTemp []bool, loops *cfg.LoopInfo) (*Context, error) {
	var live *liveness.Info
	var gws *ig.GraphScratch
	var costs *costmodel.Info
	if ws != nil {
		live = liveness.ComputeInto(f, &ws.live)
		gws = &ws.graph
		costs = costmodel.AnalyzeInto(&ws.costs[ws.cur], f, m, loops, live)
	} else {
		live = liveness.Compute(f)
		costs = costmodel.Analyze(f, m, loops, live)
	}
	g, err := ig.BuildInto(gws, f, m, loops, live)
	if err != nil {
		return nil, err
	}
	if spillTemp == nil {
		spillTemp = make([]bool, f.NumVirt)
	}
	return finishContext(&Context{
		F: f, Machine: m, Graph: g, Loops: loops, Live: live,
		Costs: costs, SpillTemp: spillTemp, Workspace: ws,
	}), nil
}

// patchContext derives the next round's context from prev, the
// context f had before the round's spill code went in, once
// ig.PatchRenumber has renumbered f into ws.patch. The liveness, cost
// and graph patches equal a rebuild (DESIGN.md §20). The costs are
// built in the workspace half prev's do not use.
func patchContext(ws *Workspace, prev *Context, f *ir.Func, spillTemp []bool) *Context {
	p := &ws.patch
	live := liveness.Patch(f, &ws.live, p.NewOf, p.EntryLive)
	next := 1 - ws.cur
	costs := costmodel.Patch(&ws.costs[next], prev.Costs, prev.Loops, f.NumVirt, p.OldOf, p.Occurrences)
	g := ig.PatchGraph(&ws.graph, p, f, prev.Machine, prev.Loops, live)
	ws.cur = next
	return finishContext(&Context{
		F: f, Machine: prev.Machine, Graph: g, Loops: prev.Loops, Live: live,
		Costs: costs, SpillTemp: spillTemp, Workspace: ws,
	})
}

// finishContext gives every web node its spill cost: its Mem_Cost, or
// InfiniteCost for a spill temporary.
func finishContext(ctx *Context) *Context {
	g := ctx.Graph
	for w := 0; w < ctx.F.NumVirt; w++ {
		c := ctx.Costs.MemCost(w)
		if ctx.SpillTemp[w] {
			c = InfiniteCost
		}
		g.SetSpillCost(g.NodeOf(ir.Virt(w)), c)
	}
	return ctx
}

// K returns the machine's register count.
func (ctx *Context) K() int { return ctx.Machine.NumRegs }

// Result is one round's allocation outcome. Colors holds, per graph
// node id, the node's register number, or -1 for none; the rewrite
// resolves a web's color by reading the web node itself first and then
// its coalescing representative, so allocators that split coalesced
// nodes (optimistic coalescing) can color members individually.
// Spilled lists web nodes (originals, not representatives) whose live
// ranges get spill code.
type Result struct {
	Colors  []int
	Spilled []ig.NodeID
}

// NewResult returns a result over g's nodes with nothing colored.
func NewResult(g *ig.Graph) *Result {
	return &Result{Colors: scratch.Fill(nil, g.NumNodes(), -1)}
}

// ColorOf resolves the color of original web node n, following the
// graph's coalescing aliases; a web coalesced into a physical register
// gets that register. ok is false for spilled nodes.
func (r *Result) ColorOf(g *ig.Graph, n ig.NodeID) (int, bool) {
	if c := r.Colors[n]; c >= 0 {
		return c, true
	}
	rep := g.Find(n)
	if g.IsPhys(rep) {
		return g.PhysColor(rep), true
	}
	if c := r.Colors[rep]; c >= 0 {
		return c, true
	}
	return -1, false
}

// Allocator is one coloring strategy, run once per spill round.
type Allocator interface {
	// Name identifies the algorithm in stats and figures.
	Name() string

	// Allocate colors ctx.Graph. It may coalesce and remove graph
	// nodes. If it returns spills, the driver inserts spill code and
	// starts a fresh round. The result may share storage with the
	// allocator's scratch on ctx.Workspace, so it is valid until the
	// next Allocate on the same workspace.
	Allocate(ctx *Context) (*Result, error)
}

// Driver is an optional Allocator extension for an algorithm with its
// own round loop (the linear-scan fast tier). Run and RunChecked hand
// such an allocator the whole allocation before renumbering, and its
// Allocate is never called. Drive must honor MaxRounds, validate each
// round and audit the final one with CheckAllocation unless
// SkipValidate is set, and refuse any option it does not implement.
type Driver interface {
	Drive(input *ir.Func, m *target.Machine, opts Options) (*ir.Func, *Stats, error)
}

// CheckResult validates an allocation against the original
// (pre-coalescing) interference graph:
//
//   - every web is either colored or spilled,
//   - colors are within machine range,
//   - no two interfering webs share a color,
//   - no web shares a color with an interfering physical register,
//   - spill temporaries are never spilled.
func CheckResult(ctx *Context, res *Result) error {
	g := ctx.Graph
	ws := ctx.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	ws.checkSpilled = scratch.Slice(ws.checkSpilled, g.NumNodes())
	ws.checkColor = scratch.Fill(ws.checkColor, g.NumNodes(), -1)
	spilled, color := ws.checkSpilled, ws.checkColor
	for _, s := range res.Spilled {
		spilled[s] = true
	}
	for i := 0; i < g.NumPhys(); i++ {
		color[i] = i
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		if spilled[n] || spilled[g.Find(n)] {
			if ctx.SpillTemp[w] {
				return fmt.Errorf("regalloc: spill temporary v%d was spilled again", w)
			}
			continue
		}
		c, ok := res.ColorOf(g, n)
		if !ok {
			// A spilling round may legitimately stop before coloring;
			// completeness is only required of the final round.
			if len(res.Spilled) == 0 {
				return fmt.Errorf("regalloc: web v%d neither colored nor spilled", w)
			}
			continue
		}
		if c < 0 || c >= ctx.K() {
			return fmt.Errorf("regalloc: web v%d got out-of-range register %d", w, c)
		}
		color[n] = c
	}
	for w := 0; w < g.NumWebs(); w++ {
		n := ig.NodeID(g.NumPhys() + w)
		if color[n] < 0 {
			continue
		}
		// Word-at-a-time neighbor walk: OrigNeighbors materializes a
		// slice per call, which made this validation pass the hottest
		// allocation site in a warm allocate.
		for wi, bw := range g.OrigRow(n) {
			base := ig.NodeID(wi << 6)
			for ; bw != 0; bw &= bw - 1 {
				nb := base + ig.NodeID(bits.TrailingZeros64(bw))
				if color[nb] >= 0 && color[nb] == color[n] {
					return fmt.Errorf("regalloc: interfering nodes %v and %v share r%d",
						g.RegOf(n), g.RegOf(nb), color[n])
				}
			}
		}
	}
	return nil
}
