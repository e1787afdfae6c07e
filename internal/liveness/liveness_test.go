package liveness

import (
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ir"
)

// regs lists a liveness row's registers, for failure messages.
func regs(row []uint64) []ir.Reg {
	var out []ir.Reg
	for r := bitset.Next(row, 0); r >= 0; r = bitset.Next(row, r+1) {
		out = append(out, ir.Reg(r))
	}
	return out
}

func TestStraightLine(t *testing.T) {
	f := ir.MustParse(`
func f(v0, v1) {
b0:
  v2 = add v0, v1
  v3 = add v2, v0
  ret v3
}
`)
	li := Compute(f)
	in := li.LiveInRow(0)
	if !bitset.Has(in, int(ir.Virt(0))) || !bitset.Has(in, int(ir.Virt(1))) {
		t.Errorf("live-in = %v, want v0 and v1", regs(in))
	}
	if bitset.Has(in, int(ir.Virt(2))) || bitset.Has(in, int(ir.Virt(3))) {
		t.Errorf("live-in = %v has locally-defined regs", regs(in))
	}
	if bitset.Count(li.LiveOutRow(0)) != 0 {
		t.Errorf("live-out of exit block = %v, want empty", regs(li.LiveOutRow(0)))
	}
}

func TestLoopLiveness(t *testing.T) {
	// v1 (the accumulator) must be live around the loop; v9 unused.
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 0
  jump b1
b1:
  v2 = add v1, v0
  v1 = move v2
  v3 = cmp v1, v0
  branch v3, b1, b2
b2:
  ret v1
}
`)
	li := Compute(f)
	if !bitset.Has(li.LiveOutRow(1), int(ir.Virt(1))) {
		t.Errorf("v1 not live out of loop body: %v", regs(li.LiveOutRow(1)))
	}
	if !bitset.Has(li.LiveInRow(1), int(ir.Virt(1))) || !bitset.Has(li.LiveInRow(1), int(ir.Virt(0))) {
		t.Errorf("live-in(b1) = %v, want v0, v1", regs(li.LiveInRow(1)))
	}
	if !bitset.Has(li.LiveOutRow(0), int(ir.Virt(1))) {
		t.Errorf("live-out(b0) = %v, want v1", regs(li.LiveOutRow(0)))
	}
}

func TestPhiLiveness(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 1
  jump b3
b2:
  v2 = loadimm 2
  jump b3
b3:
  v3 = phi v1, v2
  ret v3
}
`)
	li := Compute(f)
	// φ uses are live out of the matching predecessor only.
	if !bitset.Has(li.LiveOutRow(1), int(ir.Virt(1))) || bitset.Has(li.LiveOutRow(1), int(ir.Virt(2))) {
		t.Errorf("live-out(b1) = %v, want {v1}", regs(li.LiveOutRow(1)))
	}
	if !bitset.Has(li.LiveOutRow(2), int(ir.Virt(2))) || bitset.Has(li.LiveOutRow(2), int(ir.Virt(1))) {
		t.Errorf("live-out(b2) = %v, want {v2}", regs(li.LiveOutRow(2)))
	}
	// φ def is not live-in to its own block.
	if bitset.Has(li.LiveInRow(3), int(ir.Virt(3))) {
		t.Errorf("live-in(b3) = %v contains φ def", regs(li.LiveInRow(3)))
	}
	// And the φ arguments are not live-in to b3 either.
	if bitset.Has(li.LiveInRow(3), int(ir.Virt(1))) || bitset.Has(li.LiveInRow(3), int(ir.Virt(2))) {
		t.Errorf("live-in(b3) = %v contains φ uses", regs(li.LiveInRow(3)))
	}
}

func TestPhysRegLiveness(t *testing.T) {
	f := ir.MustParse(`
func f() {
b0:
  v0 = move r0
  r0 = move v0
  call @g r0
  ret
}
`)
	li := Compute(f)
	if !bitset.Has(li.LiveInRow(0), int(ir.Phys(0))) {
		t.Errorf("live-in = %v, want r0 (param register read at entry)", regs(li.LiveInRow(0)))
	}
}

func TestForEachInstrReverse(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 1
  v2 = add v0, v1
  ret v2
}
`)
	li := Compute(f)
	var liveAfterAdd, liveAfterLoad []uint64
	li.ForEachInstrReverse(f.Blocks[0], func(idx int, in *ir.Instr, live []uint64) {
		switch idx {
		case 1:
			liveAfterAdd = append([]uint64(nil), live...)
		case 0:
			liveAfterLoad = append([]uint64(nil), live...)
		}
	})
	if !bitset.Has(liveAfterAdd, int(ir.Virt(2))) || bitset.Has(liveAfterAdd, int(ir.Virt(1))) {
		t.Errorf("live after add = %v, want {v2}", regs(liveAfterAdd))
	}
	if !bitset.Has(liveAfterLoad, int(ir.Virt(0))) || !bitset.Has(liveAfterLoad, int(ir.Virt(1))) {
		t.Errorf("live after loadimm = %v, want v0 and v1", regs(liveAfterLoad))
	}
}

func TestLiveAcrossCalls(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 5
  v2 = call @g v0
  v3 = add v1, v2
  ret v3
}
`)
	li := Compute(f)
	across := li.LiveAcrossCalls(nil, func(ir.BlockID) float64 { return 1 })
	if across[1] != 1 {
		t.Errorf("v1 across-call weight = %v, want 1", across[1])
	}
	if across[0] != 0 {
		t.Errorf("v0 dies at the call but counted as across: %v", across)
	}
	if across[2] != 0 {
		t.Errorf("v2 is defined by the call but counted as across: %v", across)
	}
}

func TestLiveAcrossCallsFrequencyWeighted(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 5
  jump b1
b1:
  call @g
  branch v1, b1, b2
b2:
  ret v1
}
`)
	li := Compute(f)
	across := li.LiveAcrossCalls(nil, func(b ir.BlockID) float64 {
		if b == 1 {
			return 10
		}
		return 1
	})
	if across[1] != 10 {
		t.Errorf("v1 across-call weight = %v, want 10", across[1])
	}
}
