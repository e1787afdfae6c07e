package regalloc

import (
	"prefcolor/internal/costmodel"
	"prefcolor/internal/ig"
	"prefcolor/internal/liveness"
)

// Workspace is a reusable scratch arena for the allocation pipeline:
// it owns the per-round buffers the driver, the analyses, and the
// allocators would otherwise reallocate on every spill round — the
// liveness in/out sets, the web-numbering tables, the interference
// graph's bitset rows, the cost model's tables, the spill inserter's
// and CheckResult's dense tables, the driver's marker slices,
// and (via the opaque allocator slot) the RPG/CPG/selector storage of
// the core coloring engine.
//
// Ownership rules (see DESIGN.md §11):
//
//   - A Workspace serves one Run at a time. It is not safe for
//     concurrent use; pool it (sync.Pool, one per batch worker) rather
//     than share it.
//   - Everything handed out from workspace storage — the Context's
//     Graph, Live and Costs, RenumberInfo, the allocator scratch — is valid
//     only until the next Run (or the next round) borrows the buffers
//     again, and so is a round's Result. What outlives the call (the
//     rewritten function, Stats) is always freshly allocated.
//   - Buffers are cleared on borrow, not on return: every round
//     re-zeroes or re-fills what it takes, so a Workspace never leaks
//     one function's state into the next and an abandoned (errored)
//     run needs no cleanup.
//
// Reuse is observationally pure: Run with a shared Workspace produces
// bit-identical output to Run with a fresh one.
type Workspace struct {
	live     liveness.Scratch
	renumber ig.RenumberScratch
	patch    ig.SpillPatch
	graph    ig.GraphScratch

	// A spill round's patch reads the current round's costs, half cur,
	// and builds the next round's in the other.
	costs [2]costmodel.Info
	cur   int

	spill spillScratch

	spillTemp      []bool
	blockLocal     []bool
	tempRegs       []bool // Run: per-virtual-register flags
	blockLocalRegs []bool
	colors         []int
	spillSeen      []bool // expandSpills: web already listed
	spillWebs      []int
	checkSpilled   []bool // CheckResult: node listed as spilled
	checkColor     []int
	checkRows      []uint64 // CheckResult: per register, the nodes wearing it

	allocScratch any
}

// NewWorkspace returns an empty workspace. The zero value also works;
// the constructor exists for symmetry with sync.Pool New functions.
func NewWorkspace() *Workspace { return &Workspace{} }

// AllocatorScratch returns the allocator-owned scratch value stored by
// SetAllocatorScratch, or nil. The core coloring engine keeps its
// RPG/CPG/selector buffers here — the slot is opaque because core
// imports regalloc, not the other way around.
func (ws *Workspace) AllocatorScratch() any { return ws.allocScratch }

// SetAllocatorScratch stores an allocator-owned scratch value on the
// workspace, to be recovered by AllocatorScratch on the next round.
func (ws *Workspace) SetAllocatorScratch(v any) { ws.allocScratch = v }
