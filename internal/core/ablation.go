package core

import (
	"strings"

	"prefcolor/internal/ig"
)

// Ablation switches off individual design choices of the full
// coloring system, for the ablation studies in the benchmark harness.
// Every field zero-valued reproduces the paper's full algorithm.
type Ablation struct {
	// NoCPG replaces the Coloring Precedence Graph's partial order
	// with the simplification stack's total order (Chaitin/Briggs
	// pop order), isolating the contribution of §5.2's relaxation.
	NoCPG bool

	// FIFOPriority disables the strength-differential node choice of
	// §5.3 step 3; ready nodes are processed in node order.
	FIFOPriority bool

	// NoRecolor disables the post-selection greedy recoloring fixup.
	NoRecolor bool

	// NoActiveSpill disables §5.4's active spilling of
	// memory-preferring nodes.
	NoActiveSpill bool

	// NoDeferredScreen disables step 4.3 (avoiding registers that
	// block a not-yet-allocated partner's preference).
	NoDeferredScreen bool
}

func (a Ablation) suffix() string {
	var parts []string
	if a.NoCPG {
		parts = append(parts, "nocpg")
	}
	if a.FIFOPriority {
		parts = append(parts, "fifo")
	}
	if a.NoRecolor {
		parts = append(parts, "norecolor")
	}
	if a.NoActiveSpill {
		parts = append(parts, "nospill")
	}
	if a.NoDeferredScreen {
		parts = append(parts, "nodefer")
	}
	if len(parts) == 0 {
		return ""
	}
	return "-" + strings.Join(parts, "-")
}

// NewAblated returns the full-preference allocator with the given
// design choices disabled.
func NewAblated(ab Ablation) *Allocator {
	return &Allocator{mode: FullPreferences, ablation: ab}
}

// AblationVariant is one labeled design-choice knock-out.
type AblationVariant struct {
	Label    string
	Ablation Ablation
}

// Variants returns the design-choice knock-outs studied by the
// ablation harness (and replayed by the metamorphic correctness
// matrix), in report order. The first entry is the unablated full
// algorithm.
func Variants() []AblationVariant {
	return []AblationVariant{
		{"full", Ablation{}},
		{"no-cpg", Ablation{NoCPG: true}},
		{"fifo-priority", Ablation{FIFOPriority: true}},
		{"no-recolor", Ablation{NoRecolor: true}},
		{"no-active-spill", Ablation{NoActiveSpill: true}},
		{"no-deferred-screen", Ablation{NoDeferredScreen: true}},
		// stack-order isolates the CPG against the recoloring fixup: it
		// removes both, versus no-recolor which removes only the fixup.
		{"stack-order", Ablation{NoCPG: true, NoRecolor: true}},
	}
}

// chainCPG builds, into c, the degenerate precedence graph of the
// NoCPG ablation over a graph of n nodes: a single chain in Chaitin
// select order (reverse of the removal stack), ending at Bottom.
func chainCPG(c *CPG, n int, stack []ig.NodeID) {
	c.reset(n)
	if len(stack) == 0 {
		return
	}
	// Reverse stack order: last removed is colored first.
	first := stack[len(stack)-1]
	c.addEdge(Top, first)
	for i := len(stack) - 1; i > 0; i-- {
		c.addEdge(stack[i], stack[i-1])
	}
	c.addEdge(stack[0], Bottom)
}
