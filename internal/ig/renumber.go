// Package ig implements the renumber phase (live-range construction
// via webs) and the Chaitin-style interference graph all allocators in
// this repository share.
package ig

import (
	"fmt"
	"math/bits"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/scratch"
)

// RenumberScratch recycles the liveness rows, per-block register
// bitsets and union-find Renumber builds, so the driver's round loop
// stops reallocating them. The zero value is ready. The *RenumberInfo
// returned by RenumberInto is owned by the scratch: it (and its Origins
// rows) are valid only until the next RenumberInto on the same scratch.
// Not safe for concurrent use.
type RenumberScratch struct {
	live liveness.Scratch

	// Flat per-block rows of nw words over the virtual register space:
	// the registers each block defines, those some definition may
	// reach at block entry, and their intersection with live-in — the
	// registers that get an entry node.
	defBits []uint64
	mayIn   []uint64
	entry   []uint64
	have    []uint64 // one row: registers with a current node in the block walked

	entryBase []int32 // node of each block's first entry register
	paramSite []int32 // per register: its parameter's node, -1 if none
	undefSite []int32 // per register: the shared undefined-use node, -1 until needed
	cur       []int32 // per register: the node current at the walk position
	opNode    []int32 // node of every virtual operand, in walk order
	webOf     []int32
	origins   []ir.Reg // origin register of each web; backs info.Origins
	uf        unionFind
	info      RenumberInfo
}

// RenumberInfo records how Renumber mapped original virtual registers
// to webs.
type RenumberInfo struct {
	// NumWebs is the number of live ranges; the rewritten function
	// uses exactly the virtual registers Virt(0)..Virt(NumWebs-1).
	NumWebs int

	// Origins[w] holds the original virtual register web w came from:
	// always exactly one, since a web only joins definitions and uses
	// of a single register. A register with several defs feeding
	// common uses produces one web from many sites, and a register
	// with disjoint def/use regions produces several webs.
	Origins [][]ir.Reg
}

// Renumber rewrites f in place so that every virtual register is one
// live range (a web): the maximal set of definitions and uses
// connected through du-chains. This is the "renumber" phase of
// Chaitin's allocator.
//
// The function must be φ-free (run ssa.Destruct first); Renumber
// returns an error otherwise. Physical registers are left untouched.
func Renumber(f *ir.Func) (*RenumberInfo, error) { return RenumberInto(f, nil) }

// RenumberInto is Renumber reusing ws's tables; a nil ws behaves like
// Renumber. The node layout and web numbering are identical either
// way, so the rewritten function and returned info do not depend on
// reuse.
//
// Webs come from one union-find instead of a reaching-definitions
// fixpoint. Its nodes are the definition sites (parameters first, then
// instructions in block order) plus one entry node per (block b,
// register r) with r live into b and some definition of r able to
// reach b. Walking each block, a use takes the node current at that
// point — the block's last earlier definition of r, else r's entry
// node — and at the block's exit the current nodes join the matching
// entry nodes of every successor. A use no definition reaches takes
// r's single shared "undefined" node. DESIGN.md §17 shows the
// partition equals the reaching-definitions one.
func RenumberInto(f *ir.Func, ws *RenumberScratch) (*RenumberInfo, error) {
	if ws == nil {
		ws = &RenumberScratch{}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Phi {
				return nil, fmt.Errorf("ig.Renumber: b%d:%d: φ-functions must be lowered first", b.ID, i)
			}
		}
	}

	nv, nb := f.NumVirt, len(f.Blocks)
	nw := bitset.Words(nv)
	row := func(table []uint64, b ir.BlockID) []uint64 { return table[int(b)*nw : (int(b)+1)*nw] }

	ws.defBits = scratch.Slice(ws.defBits, nb*nw)
	ws.mayIn = scratch.Slice(ws.mayIn, nb*nw)
	defBits, mayIn := ws.defBits, ws.mayIn
	paramSite := scratch.Fill(ws.paramSite, nv, int32(-1))
	undefSite := scratch.Fill(ws.undefSite, nv, int32(-1))
	ws.paramSite, ws.undefSite = paramSite, undefSite
	// Parameters are the first nodes: definitions at b0's entry.
	nodes := 0
	for _, p := range f.Params {
		if p.IsVirt() && paramSite[p.VirtNum()] < 0 {
			r := p.VirtNum()
			paramSite[r] = int32(nodes)
			nodes++
			if nb > 0 {
				bitset.Set(mayIn, r)
			}
		}
	}
	// Definition sites follow, numbered in block/instruction order as
	// the walk below meets them.
	defBase := nodes
	for _, b := range f.Blocks {
		d := row(defBits, b.ID)
		for i := range b.Instrs {
			if r := b.Instrs[i].Def(); r.IsVirt() {
				bitset.Set(d, r.VirtNum())
				nodes++
			}
		}
	}

	// May-be-defined at entry: the forward union of the predecessors'
	// may-be-defined-at-exit sets, to the least fixpoint.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			in := row(mayIn, b.ID)
			for _, p := range b.Preds {
				pin, pdef := row(mayIn, p), row(defBits, p)
				for w := range in {
					if v := in[w] | pin[w] | pdef[w]; v != in[w] {
						in[w] = v
						changed = true
					}
				}
			}
		}
	}

	// Entry nodes: live-in ∩ may-be-defined, numbered per block in
	// ascending register order. The solver's rows index registers by
	// their encoding, which puts virtual 0 at a word boundary.
	live := liveness.ComputeInto(f, &ws.live)
	const virtWord = int(ir.FirstVirtual) / 64
	ws.entry = scratch.Slice(ws.entry, nb*nw)
	ws.entryBase = scratch.Slice(ws.entryBase, nb)
	entry, entryBase := ws.entry, ws.entryBase
	for _, b := range f.Blocks {
		liveIn := live.LiveInRow(b.ID)[virtWord:]
		e, m := row(entry, b.ID), row(mayIn, b.ID)
		entryBase[b.ID] = int32(nodes)
		for w := range e {
			e[w] = liveIn[w] & m[w]
			nodes += bits.OnesCount64(e[w])
		}
	}

	uf := &ws.uf
	uf.reinit(nodes)
	ws.cur = scratch.Slice(ws.cur, nv)
	ws.have = scratch.Slice(ws.have, nw)
	cur, have := ws.cur, ws.have
	ops := ws.opNode[:0]
	def := int32(defBase)
	for _, b := range f.Blocks {
		e := row(entry, b.ID)
		copy(have, e)
		node := entryBase[b.ID]
		for wi, w := range e {
			for ; w != 0; w &= w - 1 {
				r := wi<<6 + bits.TrailingZeros64(w)
				cur[r] = node
				if b.ID == 0 && paramSite[r] >= 0 {
					uf.union(int(node), int(paramSite[r]))
				}
				node++
			}
		}
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for _, u := range instr.Uses {
				if !u.IsVirt() {
					continue
				}
				r := u.VirtNum()
				if bitset.Has(have, r) {
					ops = append(ops, cur[r])
					continue
				}
				if undefSite[r] < 0 {
					undefSite[r] = int32(len(uf.parent))
					uf.grow(len(uf.parent) + 1)
				}
				ops = append(ops, undefSite[r])
			}
			if d := instr.Def(); d.IsVirt() {
				r := d.VirtNum()
				cur[r] = def
				bitset.Set(have, r)
				ops = append(ops, def)
				def++
			}
		}
		// A register in a successor's entry set is live out of b. If b
		// neither defines it nor has an entry node for it, no
		// definition reaches this edge, so only current nodes join.
		for _, s := range b.Succs {
			node := entryBase[s]
			for wi, w := range row(entry, s) {
				for ; w != 0; w &= w - 1 {
					if r := wi<<6 + bits.TrailingZeros64(w); bitset.Has(have, r) {
						uf.union(int(node), int(cur[r]))
					}
					node++
				}
			}
		}
	}
	ws.opNode = ops

	// Assign web numbers to union-find roots in walk order —
	// parameters first, so their webs get the smallest numbers — and
	// rewrite the operands.
	ws.webOf = scratch.Fill(ws.webOf, len(uf.parent), int32(-1))
	webOf := ws.webOf
	origins := ws.origins[:0]
	webFor := func(node int32, orig ir.Reg) ir.Reg {
		root := uf.find(int(node))
		if webOf[root] < 0 {
			webOf[root] = int32(len(origins))
			origins = append(origins, orig)
		}
		return ir.Virt(int(webOf[root]))
	}

	newParams := make([]ir.Reg, len(f.Params))
	for i, p := range f.Params {
		if p.IsVirt() {
			newParams[i] = webFor(paramSite[p.VirtNum()], p)
		} else {
			newParams[i] = p
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for ui, u := range instr.Uses {
				if u.IsVirt() {
					instr.Uses[ui] = webFor(ops[0], u)
					ops = ops[1:]
				}
			}
			if d := instr.Def(); d.IsVirt() {
				instr.Defs[0] = webFor(ops[0], d)
				ops = ops[1:]
			}
		}
	}

	// Each Origins row is a one-register, cap-limited window on the
	// scratch's origins slice.
	ws.origins = origins
	info := &ws.info
	info.NumWebs = len(origins)
	info.Origins = info.Origins[:0]
	for w := range origins {
		info.Origins = append(info.Origins, origins[w:w+1:w+1])
	}
	f.Params = newParams
	f.NumVirt = info.NumWebs
	return info, nil
}

// unionFind is a standard disjoint-set structure with path compression
// and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{}
	u.reinit(n)
	return u
}

// reinit resets u to n singleton sets, reusing its slices.
func (u *unionFind) reinit(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
		u.size = make([]int, n)
	}
	u.parent, u.size = u.parent[:n], u.size[:n]
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
}

func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, len(u.parent))
		u.size = append(u.size, 1)
	}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return ra
}
