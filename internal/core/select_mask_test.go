package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/scratch"
	"prefcolor/internal/target"
)

// maskSelector is a selector over k physical nodes and four webs on
// machine m, with only the state the register-set code reads: colors
// (physical nodes preset), forbid rows and the register rows. Web 0
// (node k) interferes with web 1 and not with web 2.
func maskSelector(m *target.Machine) *selector {
	k := m.NumRegs
	g := ig.NewGraph(k, 4)
	g.AddEdge(ig.NodeID(k), ig.NodeID(k+1))
	g.Freeze()
	ctx := &regalloc.Context{Machine: m, Graph: g}
	s := &selector{ctx: ctx}
	s.color = scratch.Fill(s.color, g.NumNodes(), -1)
	for i := 0; i < k; i++ {
		s.color[i] = i
	}
	s.initForbid(g, k)
	s.initRegRows(g, ctx)
	return s
}

// randomRegRow fills row with a random subset of the k registers.
func randomRegRow(rng *rand.Rand, row []uint64, k int) {
	clear(row)
	for r := 0; r < k; r++ {
		if rng.Intn(2) == 0 {
			bitset.Set(row, r)
		}
	}
}

// maskMachines crosses k ∈ {3, 8, 64, 70} with every pair rule.
func maskMachines() []*target.Machine {
	var ms []*target.Machine
	for _, k := range []int{3, 8, 64, 70} {
		for _, rule := range []target.PairRule{target.PairParity, target.PairSequential, target.PairNone} {
			m := target.UsageModel(k)
			m.Name = fmt.Sprintf("%s-rule%d", m.Name, rule)
			m.PairRule = rule
			ms = append(ms, m)
		}
	}
	return ms
}

// TestHonorBitsMatchesHonorsReg pins honorBits to the per-register
// rule: for every preference kind, every partner color and random
// available sets, the honoring row is exactly {r ∈ avail : honorsReg}.
func TestHonorBitsMatchesHonorsReg(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range maskMachines() {
		k := m.NumRegs
		s := maskSelector(m)
		from, to := ig.NodeID(k), ig.NodeID(k+1)
		prefs := []*Pref{
			{Kind: Coalesce, From: from, To: to},
			{Kind: SeqPlus, From: from, To: to},
			{Kind: SeqMinus, From: from, To: to},
			{Kind: Prefers, From: from, To: -1, Class: ClassVolatile},
			{Kind: Prefers, From: from, To: -1, Class: ClassNonVolatile},
			{Kind: Prefers, From: from, To: -1, Allowed: []int{0, k - 1, 2 % k, 0}},
			// A preference aimed at a physical register node.
			{Kind: SeqPlus, From: from, To: ig.NodeID(k / 2)},
			{Kind: Coalesce, From: from, To: ig.NodeID(k - 1)},
		}
		avail, got := s.regRow(rowAvail), s.regRow(rowHonor)
		for tc := 0; tc < k; tc++ {
			s.color[to] = tc
			for trial := 0; trial < 12; trial++ {
				switch trial {
				case 0:
					copy(avail, s.allRegs)
				case 1:
					clear(avail)
				default:
					randomRegRow(rng, avail, k)
				}
				for _, p := range prefs {
					nonEmpty := s.honorBits(got, p, avail)
					want := make([]uint64, s.kwords)
					for r := 0; r < k; r++ {
						if bitset.Has(avail, r) && s.honorsReg(p, r) {
							bitset.Set(want, r)
						}
					}
					if !slices.Equal(got, want) || nonEmpty != (bitset.Count(want) > 0) {
						t.Fatalf("%s: honorBits(%s, partner color %d, avail %x) = %x (%v), want %x",
							m.Name, p, tc, avail, got, nonEmpty, want)
					}
				}
			}
		}
	}
}

// TestDeferredBitsMatchesPairSweep pins the deferred screen to a
// brute-force PairOK sweep: r survives when some register the
// uncolored partner can still take (and, when the two interfere, is
// not r itself) pairs with r in the preference's order.
func TestDeferredBitsMatchesPairSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range maskMachines() {
		k := m.NumRegs
		s := maskSelector(m)
		kw := s.kwords
		from := ig.NodeID(k)
		cands, got := s.regRow(rowCand), s.regRow(rowSub)
		for _, to := range []ig.NodeID{ig.NodeID(k + 1), ig.NodeID(k + 2)} {
			interferes := s.ctx.Graph.OrigInterferes(from, to)
			for _, kind := range []PrefKind{Coalesce, SeqPlus, SeqMinus} {
				p := &Pref{Kind: kind, From: from, To: to}
				for trial := 0; trial < 40; trial++ {
					forbid := s.forbid[int(to)*kw : int(to)*kw+kw]
					randomRegRow(rng, forbid, k)
					randomRegRow(rng, cands, k)
					if trial == 0 {
						copy(cands, s.allRegs)
					}
					nonEmpty := s.deferredBits(got, p, cands)
					want := make([]uint64, kw)
					for r := 0; r < k; r++ {
						if !bitset.Has(cands, r) {
							continue
						}
						for reg := 0; reg < k; reg++ {
							if bitset.Has(forbid, reg) || interferes && reg == r {
								continue
							}
							ok := false
							switch kind {
							case Coalesce:
								ok = reg == r
							case SeqPlus:
								ok = m.PairOK(r, reg)
							case SeqMinus:
								ok = m.PairOK(reg, r)
							}
							if ok {
								bitset.Set(want, r)
								break
							}
						}
					}
					if !slices.Equal(got, want) || nonEmpty != (bitset.Count(want) > 0) {
						t.Fatalf("%s: deferredBits(%v, interferes=%v, partner forbid %x, cands %x) = %x (%v), want %x",
							m.Name, kind, interferes, forbid, cands, got, nonEmpty, want)
					}
				}
			}
		}
	}
}
