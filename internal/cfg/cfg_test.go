package cfg

import (
	"math"
	"testing"

	"prefcolor/internal/ir"
)

// chain builds b0 -> b1 -> b2 -> ret.
func chain(t *testing.T) *ir.Func {
	t.Helper()
	f := ir.MustParse(`
func chain() {
b0:
  jump b1
b1:
  jump b2
b2:
  ret
}
`)
	return f
}

// diamond builds b0 -> {b1,b2} -> b3.
func diamond(t *testing.T) *ir.Func {
	t.Helper()
	return ir.MustParse(`
func d(v0) {
b0:
  branch v0, b1, b2
b1:
  jump b3
b2:
  jump b3
b3:
  ret
}
`)
}

// loopFunc builds b0 -> b1 (header) -> b2 (body) -> b1, b1 -> b3.
func loopFunc(t *testing.T) *ir.Func {
	t.Helper()
	return ir.MustParse(`
func l(v0) {
b0:
  jump b1
b1:
  branch v0, b2, b3
b2:
  jump b1
b3:
  ret
}
`)
}

// nested builds a two-level loop nest:
// b0 -> b1(outer hdr) -> b2(inner hdr) -> b3(inner body) -> b2,
// b2 -> b4 -> b1, b1 -> b5(exit).
func nested(t *testing.T) *ir.Func {
	t.Helper()
	return ir.MustParse(`
func n(v0) {
b0:
  jump b1
b1:
  branch v0, b2, b5
b2:
  branch v0, b3, b4
b3:
  jump b2
b4:
  jump b1
b5:
  ret
}
`)
}

func TestDomChain(t *testing.T) {
	f := chain(t)
	d := NewDomTree(f)
	want := []ir.BlockID{0, 0, 1}
	for b, w := range want {
		if got := d.Idom(ir.BlockID(b)); got != w {
			t.Errorf("idom(b%d) = b%d, want b%d", b, got, w)
		}
	}
	if !d.Dominates(0, 2) || !d.Dominates(1, 2) || d.Dominates(2, 1) {
		t.Error("Dominates wrong on chain")
	}
}

func TestDomDiamond(t *testing.T) {
	f := diamond(t)
	d := NewDomTree(f)
	for b, w := range map[ir.BlockID]ir.BlockID{1: 0, 2: 0, 3: 0} {
		if got := d.Idom(b); got != w {
			t.Errorf("idom(b%d) = b%d, want b%d", b, got, w)
		}
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("branch arms must not dominate join")
	}
	if len(d.Children(0)) != 3 {
		t.Errorf("children(b0) = %v, want three blocks", d.Children(0))
	}
}

func TestDomLoop(t *testing.T) {
	f := loopFunc(t)
	d := NewDomTree(f)
	for b, w := range map[ir.BlockID]ir.BlockID{1: 0, 2: 1, 3: 1} {
		if got := d.Idom(b); got != w {
			t.Errorf("idom(b%d) = b%d, want b%d", b, got, w)
		}
	}
}

func TestDomUnreachable(t *testing.T) {
	f := chain(t)
	// Add an unreachable block.
	ub := f.NewBlock()
	ub.Instrs = []ir.Instr{ir.MakeRet(ir.NoReg)}
	f.RecomputePreds()
	d := NewDomTree(f)
	if d.Reachable(ub.ID) {
		t.Error("unreachable block reported reachable")
	}
	if d.Idom(ub.ID) != -1 {
		t.Errorf("idom(unreachable) = %d, want -1", d.Idom(ub.ID))
	}
	if d.Dominates(0, ub.ID) {
		t.Error("Dominates must be false for unreachable blocks")
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	f := nested(t)
	d := NewDomTree(f)
	rpo := d.RPO()
	if len(rpo) != 6 || rpo[0] != 0 {
		t.Fatalf("RPO = %v", rpo)
	}
	// Every block must appear after its idom.
	pos := map[ir.BlockID]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	for _, b := range rpo[1:] {
		if pos[d.Idom(b)] >= pos[b] {
			t.Errorf("b%d appears before its idom b%d in RPO", b, d.Idom(b))
		}
	}
}

func TestFrontiersDiamond(t *testing.T) {
	f := diamond(t)
	d := NewDomTree(f)
	df := d.Frontiers()
	if len(df[1]) != 1 || df[1][0] != 3 {
		t.Errorf("DF(b1) = %v, want [b3]", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 3 {
		t.Errorf("DF(b2) = %v, want [b3]", df[2])
	}
	if len(df[0]) != 0 {
		t.Errorf("DF(b0) = %v, want empty", df[0])
	}
	if len(df[3]) != 0 {
		t.Errorf("DF(b3) = %v, want empty", df[3])
	}
}

func TestFrontiersLoop(t *testing.T) {
	f := loopFunc(t)
	d := NewDomTree(f)
	df := d.Frontiers()
	// The loop header is in its own frontier (via the back edge).
	found := false
	for _, x := range df[1] {
		if x == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(b1) = %v, want to contain b1", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 1 {
		t.Errorf("DF(b2) = %v, want [b1]", df[2])
	}
}

func TestFindLoopsSimple(t *testing.T) {
	f := loopFunc(t)
	d := NewDomTree(f)
	li := FindLoops(f, d)
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != 1 || !l.Blocks[1] || !l.Blocks[2] || l.Blocks[0] || l.Blocks[3] {
		t.Errorf("loop = header b%d blocks %v", l.Header, l.Blocks)
	}
	if li.Depth(0) != 0 || li.Depth(1) != 1 || li.Depth(2) != 1 || li.Depth(3) != 0 {
		t.Errorf("depths = %v %v %v %v", li.Depth(0), li.Depth(1), li.Depth(2), li.Depth(3))
	}
}

func TestFindLoopsNested(t *testing.T) {
	f := nested(t)
	d := NewDomTree(f)
	li := FindLoops(f, d)
	if len(li.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(li.Loops))
	}
	outer, inner := li.Loops[0], li.Loops[1]
	if outer.Header != 1 || inner.Header != 2 {
		t.Fatalf("headers = b%d, b%d; want b1, b2", outer.Header, inner.Header)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths = %d, %d; want 1, 2", outer.Depth, inner.Depth)
	}
	if li.Depth(3) != 2 || li.Depth(4) != 1 || li.Depth(5) != 0 {
		t.Errorf("block depths: b3=%d b4=%d b5=%d", li.Depth(3), li.Depth(4), li.Depth(5))
	}
}

func TestFreq(t *testing.T) {
	f := nested(t)
	d := NewDomTree(f)
	li := FindLoops(f, d)
	if li.Freq(0) != 1 {
		t.Errorf("Freq(b0) = %v, want 1", li.Freq(0))
	}
	if li.Freq(1) != 10 {
		t.Errorf("Freq(b1) = %v, want 10", li.Freq(1))
	}
	if li.Freq(3) != 100 {
		t.Errorf("Freq(b3) = %v, want 100", li.Freq(3))
	}
}

func TestFreqCap(t *testing.T) {
	li := &LoopInfo{depth: []int{50}}
	if got := li.Freq(0); got != 1e8 {
		t.Errorf("capped Freq = %v, want 1e8", got)
	}
}

func TestSelfLoop(t *testing.T) {
	f := ir.MustParse(`
func s(v0) {
b0:
  jump b1
b1:
  branch v0, b1, b2
b2:
  ret
}
`)
	d := NewDomTree(f)
	li := FindLoops(f, d)
	if len(li.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != 1 || len(l.Blocks) != 1 || !l.Blocks[1] {
		t.Errorf("self-loop = %+v", l)
	}
}

func TestIrreducibleDoesNotCrash(t *testing.T) {
	// Two-entry cycle b1 <-> b2, entered at both b1 and b2: no natural
	// loop (neither header dominates the other's source), but analyses
	// must still terminate and be sane.
	f := ir.MustParse(`
func irr(v0) {
b0:
  branch v0, b1, b2
b1:
  branch v0, b2, b3
b2:
  branch v0, b1, b3
b3:
  ret
}
`)
	d := NewDomTree(f)
	li := FindLoops(f, d)
	if len(li.Loops) != 0 {
		t.Errorf("irreducible CFG produced %d natural loops, want 0", len(li.Loops))
	}
	if li.Depth(1) != 0 || li.Depth(2) != 0 {
		t.Error("irreducible cycle blocks should have depth 0")
	}
}

// TestFreqTableIsPow10 pins the frequency table to the 10^depth the
// cost model was computed with, bit for bit.
func TestFreqTableIsPow10(t *testing.T) {
	for d := 0; d <= 10; d++ {
		li := &LoopInfo{depth: []int{d}}
		if want := math.Pow(10, float64(min(d, 8))); li.Freq(0) != want {
			t.Errorf("Freq at depth %d = %v, want %v", d, li.Freq(0), want)
		}
	}
}
