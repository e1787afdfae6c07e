package ir

import (
	"errors"
	"fmt"
	"slices"
)

// PosError is a validation failure located at a block (and, when
// Instr >= 0, a specific instruction within it). Parse and
// DecodeBinary use the coordinates to point diagnostics at the
// offending source line.
type PosError struct {
	Block BlockID
	Instr int // instruction index within the block, -1 for block-level
	Err   error
}

func (e *PosError) Error() string {
	if e.Instr < 0 {
		return fmt.Sprintf("b%d: %v", e.Block, e.Err)
	}
	return fmt.Sprintf("b%d: instr %d: %v", e.Block, e.Instr, e.Err)
}

func (e *PosError) Unwrap() error { return e.Err }

// Validate checks the structural invariants the analyses and
// allocators rely on and returns an error describing the first
// violation found, or nil. Violations inside a block are reported as
// *PosError, so callers with source positions can map them back.
//
// Checked invariants:
//   - the function has an entry block;
//   - terminators appear only as final instructions, and every block
//     with successors ends in the matching terminator;
//   - successor/predecessor lists are mutually consistent;
//   - Branch blocks have exactly two successors, Jump blocks one,
//     Ret blocks none;
//   - φ-functions appear only at block heads and have exactly one
//     argument per predecessor;
//   - operand and parameter registers are in range (virtual numbers
//     < NumVirt);
//   - instruction operand arities match their opcodes.
func Validate(f *Func) error {
	if len(f.Blocks) == 0 {
		return errors.New("function has no blocks")
	}
	for i, b := range f.Blocks {
		if b.ID != BlockID(i) {
			return fmt.Errorf("block at index %d has ID b%d", i, b.ID)
		}
	}
	for i, p := range f.Params {
		if err := checkReg(f, p); err != nil {
			return fmt.Errorf("parameter %d: %w", i, err)
		}
	}
	for _, b := range f.Blocks {
		if err := validateBlock(f, b); err != nil {
			return err
		}
	}
	// Succ/pred consistency: the two edge multisets must be equal.
	// Packed-and-sorted slices keep this allocation-light on the hot
	// path; the map-based diagnosis runs only on mismatch.
	var succs, preds []uint64
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if int(s) >= len(f.Blocks) || s < 0 {
				return fmt.Errorf("b%d: successor b%d out of range", b.ID, s)
			}
			succs = append(succs, uint64(b.ID)<<32|uint64(uint32(s)))
		}
	}
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if int(p) >= len(f.Blocks) || p < 0 {
				return fmt.Errorf("b%d: predecessor b%d out of range", b.ID, p)
			}
			preds = append(preds, uint64(p)<<32|uint64(uint32(b.ID)))
		}
	}
	slices.Sort(succs)
	slices.Sort(preds)
	if slices.Equal(succs, preds) {
		return nil
	}
	return describeEdgeMismatch(succs, preds)
}

// describeEdgeMismatch names the first edge whose succ and pred entry
// counts disagree. Only reached on invalid input.
func describeEdgeMismatch(succs, preds []uint64) error {
	succEdges := map[uint64]int{}
	for _, e := range succs {
		succEdges[e]++
	}
	predEdges := map[uint64]int{}
	for _, e := range preds {
		predEdges[e]++
	}
	unpack := func(e uint64) (from, to BlockID) {
		return BlockID(e >> 32), BlockID(uint32(e))
	}
	for _, e := range succs {
		if n := succEdges[e]; predEdges[e] != n {
			from, to := unpack(e)
			return fmt.Errorf("edge b%d->b%d: %d succ entries but %d pred entries (run RecomputePreds?)", from, to, n, predEdges[e])
		}
	}
	for _, e := range preds {
		if n := predEdges[e]; succEdges[e] != n {
			from, to := unpack(e)
			return fmt.Errorf("edge b%d->b%d: %d pred entries but %d succ entries", from, to, n, succEdges[e])
		}
	}
	return errors.New("edge multisets differ")
}

func validateBlock(f *Func, b *Block) error {
	at := func(i int, err error) error { return &PosError{Block: b.ID, Instr: i, Err: err} }
	sawNonPhi := false
	for i := range b.Instrs {
		in := &b.Instrs[i]
		last := i == len(b.Instrs)-1
		if in.Op.IsTerminator() && !last {
			return at(i, fmt.Errorf("terminator %v not at block end", in.Op))
		}
		if in.Op == Phi {
			if sawNonPhi {
				return at(i, errors.New("φ after non-φ instruction"))
			}
			if len(in.Uses) != len(b.Preds) {
				return at(i, fmt.Errorf("φ has %d args for %d predecessors", len(in.Uses), len(b.Preds)))
			}
		} else if in.Op != Nop {
			sawNonPhi = true
		}
		if err := validateArity(in); err != nil {
			return at(i, fmt.Errorf("%v: %w", in, err))
		}
		for _, r := range in.Defs {
			if err := checkReg(f, r); err != nil {
				return at(i, fmt.Errorf("def %w", err))
			}
		}
		for _, r := range in.Uses {
			if err := checkReg(f, r); err != nil {
				return at(i, fmt.Errorf("use %w", err))
			}
		}
	}
	term := b.Terminator()
	blockErr := func(err error) error { return &PosError{Block: b.ID, Instr: -1, Err: err} }
	switch {
	case term != nil && term.Op == Branch:
		if len(b.Succs) != 2 {
			return blockErr(fmt.Errorf("branch block has %d successors", len(b.Succs)))
		}
	case term != nil && term.Op == Jump:
		if len(b.Succs) != 1 {
			return blockErr(fmt.Errorf("jump block has %d successors", len(b.Succs)))
		}
	case term != nil && term.Op == Ret:
		if len(b.Succs) != 0 {
			return blockErr(fmt.Errorf("ret block has %d successors", len(b.Succs)))
		}
	default:
		if len(b.Succs) != 0 {
			return blockErr(errors.New("block with successors lacks a terminator"))
		}
		// A block with no successors and no Ret is tolerated only if
		// empty (it may be under construction); otherwise require Ret.
		if len(b.Instrs) > 0 {
			return blockErr(errors.New("non-empty block has no terminator and no successors"))
		}
	}
	return nil
}

func checkReg(f *Func, r Reg) error {
	if r == NoReg {
		return errors.New("operand is NoReg")
	}
	if r.IsVirt() && r.VirtNum() >= f.NumVirt {
		return fmt.Errorf("virtual register %v out of range (NumVirt=%d)", r, f.NumVirt)
	}
	return nil
}

type arity struct {
	defs, uses int8
	known      bool
}

// arityTable is the fixed def/use shape per opcode, indexed by Op so
// the per-instruction check is two array loads — validation runs on
// every Parse and DecodeBinary, so this is decode-hot.
var arityTable = func() [numOps]arity {
	var t [numOps]arity
	set := func(op Op, defs, uses int8) { t[op] = arity{defs, uses, true} }
	set(Nop, 0, 0)
	set(Move, 1, 1)
	set(LoadImm, 1, 0)
	set(Load, 1, 1)
	set(Store, 0, 2)
	set(SpillStore, 0, 1)
	set(SpillLoad, 1, 0)
	set(Neg, 1, 1)
	set(AddImm, 1, 1)
	set(Ret, 0, -1) // 0 or 1 use
	set(Jump, 0, 0)
	set(Branch, 0, 1)
	for op := Op(0); op < numOps; op++ {
		if op.IsArith() && op != Neg {
			set(op, 1, 2)
		}
	}
	return t
}()

func validateArity(in *Instr) error {
	var w arity
	ok := false
	if int(in.Op) < len(arityTable) {
		w = arityTable[in.Op]
		ok = w.known
	}
	switch in.Op {
	case Call:
		if len(in.Defs) > 1 {
			return fmt.Errorf("call with %d defs", len(in.Defs))
		}
		return nil
	case Phi:
		if len(in.Defs) != 1 {
			return fmt.Errorf("φ with %d defs", len(in.Defs))
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("unknown op %d", in.Op)
	}
	if len(in.Defs) != int(w.defs) {
		return fmt.Errorf("want %d defs, have %d", w.defs, len(in.Defs))
	}
	if w.uses >= 0 && len(in.Uses) != int(w.uses) {
		return fmt.Errorf("want %d uses, have %d", w.uses, len(in.Uses))
	}
	if in.Op == Ret && len(in.Uses) > 1 {
		return fmt.Errorf("ret with %d uses", len(in.Uses))
	}
	return nil
}
