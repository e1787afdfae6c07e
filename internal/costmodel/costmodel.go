// Package costmodel implements the paper's Appendix cost functions
// over a renumbered function: spill costs, operation costs, call
// costs, and the preference strength
//
//	Str(V, P) = Mem_Cost(V) − Ideal_Cost(V, P)
//
// with the constants the paper fixes: Load_Cost = 2, Store_Cost = 1,
// Save_Restore_Cost = 3 per crossed call, Callee_Save_Cost = 2, and
// Freq_Fact = 10 per loop-nesting level.
package costmodel

import (
	"prefcolor/internal/cfg"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// The Appendix constants.
const (
	LoadCost        = 2
	StoreCost       = 1
	SaveRestoreCost = 3
	CalleeSaveCost  = 2
)

// InstCost is the Appendix's Inst_Cost: 2 for loads, 1 for everything
// else that executes, and 0 for calls (the paper leaves calls
// "undefined"; they cost the same under every allocation, so they drop
// out of every comparison).
func InstCost(op ir.Op) float64 {
	switch op {
	case ir.Load, ir.SpillLoad:
		return LoadCost
	case ir.Call, ir.Phi, ir.Nop:
		return 0
	default:
		return 1
	}
}

// Info carries the per-web cost analysis of one renumbered function.
type Info struct {
	// SpillCosts[w] = Σ Load_Cost·freq(use) + Σ Store_Cost·freq(def):
	// the traffic added if web w lives in memory.
	SpillCosts []float64

	// OpCosts[w] = Σ Inst_Cost·freq over w's defs and uses.
	OpCosts []float64

	// CrossFreq[w] is the frequency-weighted number of calls w is
	// live across.
	CrossFreq []float64

	since []int32 // Patch's per-web call counts
}

// Analyze computes the Appendix quantities for every web of f.
// The function must already be renumbered (webs == virtual registers).
func Analyze(f *ir.Func, m *target.Machine, loops *cfg.LoopInfo, live *liveness.Info) *Info {
	return AnalyzeInto(&Info{}, f, m, loops, live)
}

// AnalyzeInto is Analyze computed into info's tables, reusing their
// backing arrays when they are large enough, and returns info.
func AnalyzeInto(info *Info, f *ir.Func, m *target.Machine, loops *cfg.LoopInfo, live *liveness.Info) *Info {
	info.SpillCosts = scratch.Slice(info.SpillCosts, f.NumVirt)
	info.OpCosts = scratch.Slice(info.OpCosts, f.NumVirt)
	info.CrossFreq = live.LiveAcrossCalls(info.CrossFreq, loops.Freq)
	for _, b := range f.Blocks {
		freq := loops.Freq(b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			c := InstCost(in.Op)
			for _, d := range in.Defs {
				if d.IsVirt() {
					info.SpillCosts[d.VirtNum()] += StoreCost * freq
					info.OpCosts[d.VirtNum()] += c * freq
				}
			}
			// Uses lists are tiny (almost always ≤3), so dedup by
			// scanning the prefix instead of allocating a set per
			// instruction.
			for ui, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				dup := false
				for _, prev := range in.Uses[:ui] {
					if prev == u {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				info.SpillCosts[u.VirtNum()] += LoadCost * freq
				info.OpCosts[u.VirtNum()] += c * freq
			}
		}
	}
	return info
}

// Patch computes into dst, from old, the analysis of the previous
// numbering, the analysis of a function of nWebs webs after a spill
// round's patch renumbered it (ig.PatchRenumber); dst must not be old.
// oldOf[w] is the old web new web w continues, whose uses, definitions
// and crossed calls did not change, so its costs are copied; or -1 for
// a web the spill code made, whose costs are summed over its operands,
// occ. A new web's operands lie in one block, in order, so every sum
// adds the same terms in the same order as AnalyzeInto's walk and the
// result equals AnalyzeInto's on the function.
//
// Such a web is live across exactly the calls of its block after its
// definition (or the entry block's head) and before its last use; each
// adds the block frequency once, as LiveAcrossCalls does.
func Patch(dst, old *Info, loops *cfg.LoopInfo, nWebs int, oldOf []int32, occ []ig.Occurrence) *Info {
	dst.SpillCosts = scratch.Slice(dst.SpillCosts, nWebs)
	dst.OpCosts = scratch.Slice(dst.OpCosts, nWebs)
	dst.CrossFreq = scratch.Slice(dst.CrossFreq, nWebs)
	for w, o := range oldOf {
		if o >= 0 {
			dst.SpillCosts[w] = old.SpillCosts[o]
			dst.OpCosts[w] = old.OpCosts[o]
			dst.CrossFreq[w] = old.CrossFreq[o]
		}
	}
	// since[w] counts the calls of its block up to new web w's
	// definition.
	dst.since = scratch.Slice(dst.since, nWebs)
	since := dst.since
	for _, o := range occ {
		w, freq := o.Web, loops.Freq(o.Block)
		c := InstCost(o.Op)
		if o.Def {
			dst.SpillCosts[w] += StoreCost * freq
			dst.OpCosts[w] += c * freq
			since[w] = o.Calls
			continue
		}
		dst.SpillCosts[w] += LoadCost * freq
		dst.OpCosts[w] += c * freq
		if k := o.Calls - since[w]; k > 0 {
			cross := 0.0
			for ; k > 0; k-- {
				cross += freq
			}
			dst.CrossFreq[w] = cross
		}
	}
	return dst
}

// MemCost returns Mem_Cost(w) = Spill_Cost(w) + Op_Cost(w).
func (in *Info) MemCost(w int) float64 { return in.SpillCosts[w] + in.OpCosts[w] }

// CallCost returns Call_Cost(w) when w resides in a volatile
// (Save_Restore_Cost per crossed call) or non-volatile register
// (Callee_Save_Cost, once).
func (in *Info) CallCost(w int, volatile bool) float64 {
	if volatile {
		return SaveRestoreCost * in.CrossFreq[w]
	}
	return CalleeSaveCost
}

// Str returns the preference strength Str(w, P) for a preference P
// honored with a register of the given volatility, where savings is
// the frequency-weighted Inst_Cost the preference zeroes out
// (Ideal_Inst_Cost): the move weight for a coalesce preference, the
// paired load's cost for sequential±, and 0 for a bare class
// preference.
func (in *Info) Str(w int, volatile bool, savings float64) float64 {
	ideal := in.CallCost(w, volatile) + in.OpCosts[w] - savings
	return in.MemCost(w) - ideal
}

// RegisterBenefit is the best-case benefit of keeping w in a register
// at all: max over volatilities of Str with no extra savings. A
// negative value means the web actively prefers memory (the paper's
// §5.4 active-spill criterion).
func (in *Info) RegisterBenefit(w int) float64 {
	v := in.Str(w, true, 0)
	nv := in.Str(w, false, 0)
	if v > nv {
		return v
	}
	return nv
}

// LoadPair is one paired-load candidate: two adjacent loads off the
// same base register with offsets one word apart (paper Figure 5(a)).
// Fusing them saves the second load's cost when the destination
// registers satisfy the machine's pair rule.
type LoadPair struct {
	Block  ir.BlockID
	I1, I2 int // instruction indices within Block; I2 == I1+1
	Dst1   ir.Reg
	Dst2   ir.Reg
	Weight float64 // frequency-weighted saved cost (Load_Cost · freq)
}

// LimitSite is one occurrence of a limited-register-usage constraint
// (the paper's second preference kind): the given register operand of
// the instruction prefers the machine's allowed subset, and violating
// it costs Weight (fixup cost × frequency).
type LimitSite struct {
	Block   ir.BlockID
	Instr   int
	Reg     ir.Reg
	Allowed []int
	Weight  float64
}

// FindLimitSites scans f for operands constrained by the machine's
// OpLimits.
func FindLimitSites(f *ir.Func, m *target.Machine, loops *cfg.LoopInfo) []LimitSite {
	if len(m.Limits) == 0 {
		return nil
	}
	var out []LimitSite
	for _, b := range f.Blocks {
		freq := loops.Freq(b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for li := range m.Limits {
				l := &m.Limits[li]
				r, ok := l.Applies(in)
				if !ok || !r.Valid() {
					continue
				}
				out = append(out, LimitSite{
					Block: b.ID, Instr: i, Reg: r,
					Allowed: l.Regs, Weight: l.FixupCost * freq,
				})
			}
		}
	}
	return out
}

// FindLoadPairs scans f for paired-load candidates. The first load's
// destination must differ from the base (the fused load writes both
// destinations after reading the base once).
func FindLoadPairs(f *ir.Func, m *target.Machine, loops *cfg.LoopInfo) []LoadPair {
	if m.PairRule == target.PairNone {
		return nil
	}
	var out []LoadPair
	for _, b := range f.Blocks {
		freq := loops.Freq(b.ID)
		for i := 0; i+1 < len(b.Instrs); i++ {
			a, c := &b.Instrs[i], &b.Instrs[i+1]
			if a.Op != ir.Load || c.Op != ir.Load {
				continue
			}
			if a.Uses[0] != c.Uses[0] {
				continue
			}
			if c.Imm-a.Imm != m.WordSize {
				continue
			}
			if a.Defs[0] == a.Uses[0] || a.Defs[0] == c.Defs[0] {
				continue
			}
			out = append(out, LoadPair{
				Block:  b.ID,
				I1:     i,
				I2:     i + 1,
				Dst1:   a.Defs[0],
				Dst2:   c.Defs[0],
				Weight: LoadCost * freq,
			})
		}
	}
	return out
}
