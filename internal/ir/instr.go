package ir

import (
	"fmt"
	"strconv"
)

// Instr is a single register-transfer instruction.
//
// Defs and Uses hold register operands; Imm carries immediates and
// memory/spill offsets; Sym names call targets. Control-flow targets
// live on the enclosing Block (Succs), not on the instruction, so
// instructions can be moved and rewritten without touching block
// structure.
type Instr struct {
	Op   Op
	Defs []Reg
	Uses []Reg
	Imm  int64
	Sym  string
}

// MakeMove builds a Move instruction copying src into dst.
func MakeMove(dst, src Reg) Instr {
	return Instr{Op: Move, Defs: []Reg{dst}, Uses: []Reg{src}}
}

// MakeLoadImm builds a LoadImm instruction setting dst to imm.
func MakeLoadImm(dst Reg, imm int64) Instr {
	return Instr{Op: LoadImm, Defs: []Reg{dst}, Imm: imm}
}

// MakeLoad builds a Load of [base+off] into dst.
func MakeLoad(dst, base Reg, off int64) Instr {
	return Instr{Op: Load, Defs: []Reg{dst}, Uses: []Reg{base}, Imm: off}
}

// MakeStore builds a Store of src to [base+off].
func MakeStore(src, base Reg, off int64) Instr {
	return Instr{Op: Store, Uses: []Reg{src, base}, Imm: off}
}

// MakeBin builds a two-operand arithmetic instruction dst = a op b.
func MakeBin(op Op, dst, a, b Reg) Instr {
	if !op.IsArith() || op == Neg {
		panic(fmt.Sprintf("ir.MakeBin: %v is not a binary arithmetic op", op))
	}
	return Instr{Op: op, Defs: []Reg{dst}, Uses: []Reg{a, b}}
}

// MakeCall builds a call of sym with the given argument registers and
// optional result register (NoReg for none).
func MakeCall(sym string, result Reg, args ...Reg) Instr {
	in := Instr{Op: Call, Sym: sym, Uses: args}
	if result.Valid() {
		in.Defs = []Reg{result}
	}
	return in
}

// MakeRet builds a return; v may be NoReg for a void return.
func MakeRet(v Reg) Instr {
	if !v.Valid() {
		return Instr{Op: Ret}
	}
	return Instr{Op: Ret, Uses: []Reg{v}}
}

// MakePhi builds a φ-function with one argument per predecessor.
func MakePhi(dst Reg, args ...Reg) Instr {
	return Instr{Op: Phi, Defs: []Reg{dst}, Uses: args}
}

// Def returns the single definition of the instruction, or NoReg if it
// defines nothing.
func (in *Instr) Def() Reg {
	if len(in.Defs) == 0 {
		return NoReg
	}
	return in.Defs[0]
}

// IsCopy reports whether the instruction is a register-to-register
// move, the coalescing candidate shape.
func (in *Instr) IsCopy() bool {
	return in.Op == Move && len(in.Defs) == 1 && len(in.Uses) == 1
}

// Clone returns a deep copy of the instruction.
func (in Instr) Clone() Instr {
	out := in
	if in.Defs != nil {
		out.Defs = append([]Reg(nil), in.Defs...)
	}
	if in.Uses != nil {
		out.Uses = append([]Reg(nil), in.Uses...)
	}
	return out
}

// String renders the instruction in the textual IR syntax, e.g.
// "v3 = add v1, v2" or "store v1, v2, 8".
func (in Instr) String() string {
	var buf [64]byte
	return string(in.appendText(buf[:0]))
}

// appendText appends the instruction's String form to dst.
func (in *Instr) appendText(dst []byte) []byte {
	for i, d := range in.Defs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = d.appendText(dst)
	}
	if len(in.Defs) > 0 {
		dst = append(dst, " = "...)
	}
	dst = append(dst, in.Op.String()...)
	if in.Op == Call {
		dst = append(dst, " @"...)
		dst = append(dst, in.Sym...)
	}
	for i, u := range in.Uses {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = u.appendText(dst)
	}
	switch in.Op {
	case LoadImm, SpillLoad:
		dst = strconv.AppendInt(append(dst, ' '), in.Imm, 10)
	case Load, Store, SpillStore, AddImm:
		dst = strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
	}
	return dst
}
