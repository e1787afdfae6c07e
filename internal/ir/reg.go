// Package ir defines the register-transfer intermediate representation
// consumed by the register allocators in this repository.
//
// A function (Func) is a list of basic blocks (Block) holding
// instructions (Instr) over virtual and physical registers (Reg).
// The representation is deliberately close to the one the paper's
// allocators operate on inside the IBM IA-64 JIT: an infinite supply of
// virtual registers, explicit copies for calling conventions, and
// explicit φ-functions when a function is in SSA form.
package ir

import (
	"fmt"
	"strconv"
)

// Reg names a register operand. The zero value, NoReg, means "no
// register". Physical machine registers occupy the small positive
// numbers below FirstVirtual; virtual registers occupy FirstVirtual and
// above. The encoding keeps Reg a simple comparable scalar that can be
// used as a map key or array index.
type Reg int32

const (
	// NoReg is the absent register; it is the zero Reg.
	NoReg Reg = 0

	// FirstVirtual is the encoding boundary between physical and
	// virtual registers. Physical register n is encoded as Reg(n+1),
	// so at most FirstVirtual-1 physical registers can be named.
	FirstVirtual Reg = 256
)

// Phys returns the Reg naming physical register n (0-based machine
// register number). It panics if n is out of the encodable range.
func Phys(n int) Reg {
	if n < 0 || n >= int(FirstVirtual)-1 {
		panic(fmt.Sprintf("ir.Phys: register number %d out of range", n))
	}
	return Reg(n + 1)
}

// Virt returns the Reg naming virtual register n (0-based).
func Virt(n int) Reg {
	if n < 0 {
		panic(fmt.Sprintf("ir.Virt: negative virtual register %d", n))
	}
	return FirstVirtual + Reg(n)
}

// IsPhys reports whether r names a physical machine register.
func (r Reg) IsPhys() bool { return r > NoReg && r < FirstVirtual }

// IsVirt reports whether r names a virtual register.
func (r Reg) IsVirt() bool { return r >= FirstVirtual }

// Valid reports whether r names any register at all.
func (r Reg) Valid() bool { return r != NoReg }

// PhysNum returns the 0-based machine register number of a physical
// register. It panics if r is not physical.
func (r Reg) PhysNum() int {
	if !r.IsPhys() {
		panic(fmt.Sprintf("ir.Reg.PhysNum: %v is not physical", r))
	}
	return int(r) - 1
}

// VirtNum returns the 0-based virtual register number. It panics if r
// is not virtual.
func (r Reg) VirtNum() int {
	if !r.IsVirt() {
		panic(fmt.Sprintf("ir.Reg.VirtNum: %v is not virtual", r))
	}
	return int(r - FirstVirtual)
}

// String renders physical registers as r<n> and virtual registers as
// v<n>, matching the textual IR syntax.
func (r Reg) String() string {
	var buf [12]byte
	return string(r.appendText(buf[:0]))
}

// appendText appends r's String form to dst.
func (r Reg) appendText(dst []byte) []byte {
	switch {
	case r == NoReg:
		return append(dst, "<none>"...)
	case r.IsPhys():
		return strconv.AppendInt(append(dst, 'r'), int64(r.PhysNum()), 10)
	default:
		return strconv.AppendInt(append(dst, 'v'), int64(r.VirtNum()), 10)
	}
}
