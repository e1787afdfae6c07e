package ir

import "strconv"

// BlockID indexes a block within its function's Blocks slice.
type BlockID int32

// Block is a basic block: a straight-line instruction sequence ending
// in at most one terminator, with explicit successor edges.
type Block struct {
	ID     BlockID
	Instrs []Instr

	// Succs are the control-flow successors, in branch order: for a
	// Branch terminator Succs[0] is the taken (non-zero) target and
	// Succs[1] the fall-through.
	Succs []BlockID

	// Preds are the control-flow predecessors, maintained by
	// Func.RecomputePreds. φ-argument order follows Preds order.
	Preds []BlockID
}

// Terminator returns the block's final instruction, or nil for an
// empty block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Func is a single function: an entry block (Blocks[0]), a block list,
// and a virtual-register counter.
type Func struct {
	Name   string
	Blocks []*Block

	// Params are the virtual registers holding the incoming
	// parameters, in order. Convention lowering materializes them as
	// moves from the machine's parameter registers at function entry.
	Params []Reg

	// NumVirt is the number of virtual registers allocated so far;
	// virtual registers are Virt(0) .. Virt(NumVirt-1).
	NumVirt int

	// NumSpillSlots counts allocator-created spill slots.
	NumSpillSlots int

	// store is the storage DecodeBinaryInto reuses; nil until a
	// function is first decoded into this one.
	store *decodeStore
}

// NewFunc returns an empty function with the given name.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Virt(f.NumVirt)
	f.NumVirt++
	return r
}

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: BlockID(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir.Func.Entry: function has no blocks")
	}
	return f.Blocks[0]
}

// Block returns the block with the given ID.
func (f *Func) Block(id BlockID) *Block { return f.Blocks[id] }

// NewSpillSlot allocates a fresh spill slot and returns its index.
func (f *Func) NewSpillSlot() int64 {
	s := f.NumSpillSlots
	f.NumSpillSlots++
	return int64(s)
}

// RecomputePreds rebuilds every block's Preds list from the Succs
// lists. Callers that edit control flow must invoke it before running
// analyses. φ-functions are not re-ordered; a pass that changes edge
// order is responsible for permuting φ arguments itself.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			sb := f.Blocks[s]
			sb.Preds = append(sb.Preds, b.ID)
		}
	}
}

// ForEachInstr calls fn for every instruction in block/program order.
func (f *Func) ForEachInstr(fn func(b *Block, i int, in *Instr)) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			fn(b, i, &b.Instrs[i])
		}
	}
}

// CountOp returns the number of instructions with the given Op.
func (f *Func) CountOp(op Op) int {
	n := 0
	f.ForEachInstr(func(_ *Block, _ int, in *Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

// NumInstrs returns the total instruction count.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function. The copy's blocks, its
// edges and its register operands each live in one backing array, and
// every slice cut from the shared arrays is cap-limited, so an append
// to one instruction's Defs or Uses or one block's Succs or Preds
// reallocates instead of running into its neighbour. Each block's
// instructions get their own array: spill rounds rebuild blocks, and
// a shared array would stay pinned by the blocks no round touched.
// Empty operand and edge slices come back nil, as a per-slice copy
// would leave them.
func (f *Func) Clone() *Func {
	nEdges, nRegs := 0, len(f.Params)
	for _, b := range f.Blocks {
		nEdges += len(b.Succs) + len(b.Preds)
		for i := range b.Instrs {
			nRegs += len(b.Instrs[i].Defs) + len(b.Instrs[i].Uses)
		}
	}
	blocks := make([]Block, len(f.Blocks))
	edges := make([]BlockID, 0, nEdges)
	regs := make([]Reg, 0, nRegs)
	out := &Func{
		Name:          f.Name,
		Params:        appendCut(&regs, f.Params),
		NumVirt:       f.NumVirt,
		NumSpillSlots: f.NumSpillSlots,
		Blocks:        make([]*Block, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		nb := &blocks[i]
		nb.ID = b.ID
		nb.Succs = appendCut(&edges, b.Succs)
		nb.Preds = appendCut(&edges, b.Preds)
		nb.Instrs = make([]Instr, len(b.Instrs))
		for j, in := range b.Instrs {
			in.Defs = appendCut(&regs, in.Defs)
			in.Uses = appendCut(&regs, in.Uses)
			nb.Instrs[j] = in
		}
		out.Blocks[i] = nb
	}
	return out
}

// appendCut appends src to *arena and returns the appended elements
// as a cap-limited slice, or nil when src is empty.
func appendCut[T any](arena *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	lo := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[lo:len(*arena):len(*arena)]
}

// CompactNops removes Nop instructions in place.
func (f *Func) CompactNops() {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != Nop {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
}

// String renders the function in the textual IR syntax accepted by
// Parse.
func (f *Func) String() string {
	return string(f.AppendText(make([]byte, 0, 16+20*len(f.Blocks)+20*f.NumInstrs())))
}

// AppendText appends the function's String form to dst and returns the
// extended slice, so a caller with a buffer to reuse renders without
// allocating.
func (f *Func) AppendText(dst []byte) []byte {
	dst = append(dst, "func "...)
	dst = append(dst, f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = p.appendText(dst)
	}
	dst = append(dst, ") {\n"...)
	for _, b := range f.Blocks {
		dst = appendBlockRef(dst, b.ID, "b", ":")
		if len(b.Succs) > 0 {
			dst = append(dst, " ; succs:"...)
			for _, s := range b.Succs {
				dst = appendBlockRef(dst, s, " b", "")
			}
		}
		dst = append(dst, '\n')
		for i := range b.Instrs {
			in := &b.Instrs[i]
			dst = in.appendText(append(dst, "  "...))
			switch in.Op {
			case Jump:
				dst = appendBlockRef(dst, b.Succs[0], " b", "")
			case Branch:
				dst = appendBlockRef(dst, b.Succs[0], ", b", "")
				dst = appendBlockRef(dst, b.Succs[1], ", b", "")
			}
			dst = append(dst, '\n')
		}
	}
	return append(dst, "}\n"...)
}

// appendBlockRef appends prefix, the block number and suffix to dst.
func appendBlockRef(dst []byte, id BlockID, prefix, suffix string) []byte {
	dst = strconv.AppendInt(append(dst, prefix...), int64(id), 10)
	return append(dst, suffix...)
}
