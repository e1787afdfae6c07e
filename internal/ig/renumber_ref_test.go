package ig

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/ir"
	"prefcolor/internal/scratch"
)

// renumberReference is the reaching-definitions renumber RenumberInto
// replaced: an iterative fixpoint over sorted per-register
// definition-site sets, unioning every use with all of its reaching
// definitions. It is kept verbatim as the oracle
// TestRenumberMatchesReference pins the liveness-pruned union-find
// against — same rewritten text, same NumWebs, same Origins.
func renumberReference(f *ir.Func) (*RenumberInfo, error) {
	ws := &refRenumberScratch{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Phi {
				return nil, fmt.Errorf("ig.Renumber: b%d:%d: φ-functions must be lowered first", b.ID, i)
			}
		}
	}

	// Enumerate definition sites. Site 0..len(Params)-1 are the
	// parameter pseudo-definitions at entry; further sites follow in
	// block/instruction order. Synthetic sites for uses with no
	// reaching definition are appended on demand. Every per-register
	// table below is a dense slice indexed by VirtNum — virtual
	// registers are contiguous, so hashing them is pure overhead.
	nv := f.NumVirt
	nb := len(f.Blocks)
	siteReg := ws.siteReg[:0] // original register each site defines
	ws.siteAt = scratch.Rows(ws.siteAt, nb)
	siteAt := ws.siteAt // def site per instruction, -1 if none
	paramSite := scratch.Fill(ws.paramSite, nv, int32(-1))
	undefSite := scratch.Fill(ws.undefSite, nv, int32(-1))
	ws.paramSite, ws.undefSite = paramSite, undefSite
	for _, p := range f.Params {
		if p.IsVirt() && paramSite[p.VirtNum()] < 0 {
			paramSite[p.VirtNum()] = int32(len(siteReg))
			siteReg = append(siteReg, p)
		}
	}
	for _, b := range f.Blocks {
		sa := scratch.Fill(siteAt[b.ID], len(b.Instrs), int32(-1))
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d.IsVirt() {
				sa[i] = int32(len(siteReg))
				siteReg = append(siteReg, d)
			}
		}
		siteAt[b.ID] = sa
	}

	uf := &ws.uf
	uf.reinit(len(siteReg))

	// Reaching definitions, as per-register sets of site ids. Site
	// sets are sorted, deduplicated slices treated as immutable, so
	// the dataflow vectors can share them — and singleton sets can
	// even be shared across runs, since singleton[s] is always {s}.
	singleton := ws.singleton
	single := func(s int32) siteSet {
		for len(singleton) <= int(s) {
			singleton = append(singleton, nil)
		}
		if singleton[s] == nil {
			singleton[s] = siteSet{s}
		}
		return singleton[s]
	}
	defer func() { ws.singleton = singleton; ws.siteReg = siteReg }()
	type regSites = []siteSet // indexed by VirtNum; nil = no reaching def

	// Per-block gen (last def site per register), with occupancy masks.
	nw := (nv + 63) / 64
	ws.gens = scratch.Rows(ws.gens, nb)
	ws.gensMask = scratch.Rows(ws.gensMask, nb)
	ws.inMask = scratch.Rows(ws.inMask, nb)
	ws.outMask = scratch.Rows(ws.outMask, nb)
	gens := ws.gens
	gensMask, inMask, outMask := ws.gensMask, ws.inMask, ws.outMask
	for _, b := range f.Blocks {
		g := scratch.Slice(gens[b.ID], nv)
		gm := scratch.Slice(gensMask[b.ID], nw)
		inMask[b.ID] = scratch.Slice(inMask[b.ID], nw)
		outMask[b.ID] = scratch.Slice(outMask[b.ID], nw)
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d.IsVirt() {
				r := d.VirtNum()
				g[r] = single(siteAt[b.ID][i])
				gm[r>>6] |= 1 << (uint(r) & 63)
			}
		}
		gens[b.ID] = g
		gensMask[b.ID] = gm
	}

	// mergeIn accumulates in[b] = ∪ out[p] in place. The previous value
	// of rs is never cleared first: out sets only grow, so the prior
	// in[b] is always a subset of the fresh union and re-unioning on top
	// of it yields the identical sets (and skips a full clearing walk
	// per merge).
	mergeIn := func(b *ir.Block, out []regSites, rs regSites) {
		im := inMask[b.ID]
		if b.ID == 0 {
			for _, p := range f.Params {
				if p.IsVirt() {
					r := p.VirtNum()
					rs[r] = single(paramSite[r])
					im[r>>6] |= 1 << (uint(r) & 63)
				}
			}
		} else if len(b.Preds) == 1 {
			// Straight-line fast path: in[b] is exactly out[pred]. The
			// masks are monotone, so every register rs already holds is
			// covered by the predecessor's mask and gets overwritten
			// with the (equal-or-larger) predecessor set.
			p := b.Preds[0]
			po := out[p]
			for wi, w := range outMask[p] {
				base := wi << 6
				for t := w; t != 0; t &= t - 1 {
					r := base + bits.TrailingZeros64(t)
					rs[r] = po[r]
				}
				im[wi] |= w
			}
			return
		}
		for _, p := range b.Preds {
			po := out[p]
			for wi, w := range outMask[p] {
				base := wi << 6
				for t := w; t != 0; t &= t - 1 {
					r := base + bits.TrailingZeros64(t)
					rs[r] = unionSites(rs[r], po[r])
				}
				im[wi] |= w
			}
		}
	}

	ws.in = scratch.Rows(ws.in, nb)
	ws.out = scratch.Rows(ws.out, nb)
	in, out := ws.in, ws.out
	for i := range f.Blocks {
		in[i] = scratch.Slice(in[i], nv)
		out[i] = scratch.Slice(out[i], nv)
	}
	// Iterate to the fixpoint with a FIFO worklist: a block re-merges
	// only after a predecessor's out actually changed, so stabilized
	// regions drop out of the schedule instead of being re-unioned on
	// every sweep. The union dataflow is monotone with a unique least
	// fixpoint, so the final in/out sets are identical to the
	// full-sweep schedule's.
	wl := ws.worklist[:0]
	onWL := scratch.Slice(ws.onWorklist, nb)
	for _, b := range f.Blocks {
		wl = append(wl, int32(b.ID))
		onWL[b.ID] = true
	}
	for head := 0; head < len(wl); head++ {
		bid := wl[head]
		onWL[bid] = false
		b := f.Blocks[bid]
		rs := in[bid]
		mergeIn(b, out, rs)
		blockChanged := false
		bg, bo := gens[bid], out[bid]
		im, gm, om := inMask[bid], gensMask[bid], outMask[bid]
		for wi := range im {
			w := im[wi] | gm[wi]
			om[wi] = w
			base := wi << 6
			for t := w; t != 0; t &= t - 1 {
				r := base + bits.TrailingZeros64(t)
				sites := rs[r]
				if g := bg[r]; g != nil {
					sites = g
				}
				if !sitesEqual(bo[r], sites) {
					bo[r] = sites
					blockChanged = true
				}
			}
		}
		if blockChanged {
			for _, s := range b.Succs {
				if !onWL[s] {
					onWL[s] = true
					wl = append(wl, int32(s))
				}
			}
		}
	}
	ws.worklist, ws.onWorklist = wl[:0], onWL

	// Walk each block, unioning every use with all of its reaching
	// definitions.
	reachingAt := func(cur regSites, u ir.Reg) int32 {
		sites := cur[u.VirtNum()]
		if len(sites) == 0 {
			s := undefSite[u.VirtNum()]
			if s < 0 {
				s = int32(len(siteReg))
				siteReg = append(siteReg, u)
				undefSite[u.VirtNum()] = s
				uf.grow(len(siteReg))
			}
			return s
		}
		first := sites[0]
		for _, s := range sites[1:] {
			uf.union(int(first), int(s))
		}
		return first
	}
	ws.cur = scratch.Slice(ws.cur, nv)
	cur := ws.cur
	for _, b := range f.Blocks {
		copy(cur, in[b.ID])
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for _, u := range instr.Uses {
				if u.IsVirt() {
					reachingAt(cur, u)
				}
			}
			if d := instr.Def(); d.IsVirt() {
				cur[d.VirtNum()] = single(siteAt[b.ID][i])
			}
		}
	}

	// Assign web numbers to union-find roots, in deterministic
	// (site-order) sequence, and rewrite operands in a second walk.
	// siteReg is final now: the second walk resolves the same uses, so
	// every undef site already exists.
	ws.webOf = scratch.Fill(ws.webOf, len(siteReg), int32(-1))
	webOf := ws.webOf
	info := &ws.info
	recycled := info.Origins // previous run's rows, recycled by index
	info.NumWebs = 0
	info.Origins = recycled[:0]
	webFor := func(site int32) ir.Reg {
		root := uf.find(int(site))
		w := webOf[root]
		if w < 0 {
			w = int32(info.NumWebs)
			webOf[root] = w
			var row []ir.Reg
			if info.NumWebs < len(recycled) {
				row = recycled[info.NumWebs][:0]
			}
			info.NumWebs++
			info.Origins = append(info.Origins, row)
		}
		orig := siteReg[site]
		found := false
		for _, r := range info.Origins[w] {
			if r == orig {
				found = true
				break
			}
		}
		if !found {
			info.Origins[w] = append(info.Origins[w], orig)
		}
		return ir.Virt(int(w))
	}

	// Parameters first, so their webs get the smallest numbers.
	newParams := make([]ir.Reg, len(f.Params))
	for i, p := range f.Params {
		if p.IsVirt() {
			newParams[i] = webFor(paramSite[p.VirtNum()])
		} else {
			newParams[i] = p
		}
	}

	for _, b := range f.Blocks {
		copy(cur, in[b.ID])
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for ui, u := range instr.Uses {
				if u.IsVirt() {
					instr.Uses[ui] = webFor(reachingAt(cur, u))
				}
			}
			if d := instr.Def(); d.IsVirt() {
				site := siteAt[b.ID][i]
				instr.Defs[0] = webFor(site)
				cur[d.VirtNum()] = single(site)
			}
		}
	}

	f.Params = newParams
	f.NumVirt = info.NumWebs
	return info, nil
}

// refRenumberScratch holds the reference's dense per-site and
// per-register tables.
type refRenumberScratch struct {
	siteReg   []ir.Reg
	siteAt    [][]int32
	paramSite []int32
	undefSite []int32
	singleton []siteSet // singleton[s] == {s}: immutable, reused across runs
	gens      [][]siteSet
	in        [][]siteSet
	out       [][]siteSet
	cur       []siteSet
	webOf     []int32
	uf        unionFind
	info      RenumberInfo

	// Per-block occupancy masks over the register index space: bit r
	// of gensMask/inMask/outMask[b] is set exactly when the matching
	// siteSet entry is non-nil. The dataflow loops walk set bits
	// instead of all NumVirt entries, so blocks touching a handful of
	// registers skip the empty 64-register spans word-at-a-time.
	// Reaching-definition sets only ever grow, so the masks are
	// monotone too.
	gensMask [][]uint64
	inMask   [][]uint64
	outMask  [][]uint64

	// Worklist scratch for the reaching-definitions fixpoint.
	worklist   []int32
	onWorklist []bool
}

// siteSet is a sorted, deduplicated list of definition-site ids,
// treated as immutable once built so maps may share instances.
type siteSet []int32

// unionSites merges two site sets, returning an existing set when one
// contains the other.
func unionSites(a, b siteSet) siteSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	// Fast path: identical or containment.
	if sitesSubset(b, a) {
		return a
	}
	if sitesSubset(a, b) {
		return b
	}
	out := make(siteSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func sitesSubset(a, b siteSet) bool { // a ⊆ b
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
	}
	return true
}

func sitesEqual(a, b siteSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
