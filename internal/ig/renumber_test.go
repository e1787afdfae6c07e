package ig

import (
	"testing"

	"prefcolor/internal/ir"
)

func TestRenumberSplitsDisjointRanges(t *testing.T) {
	// v1 has two disjoint lifetimes: webs must be separate.
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 1
  v2 = add v1, v0
  v1 = loadimm 2
  v3 = add v1, v2
  ret v3
}
`)
	orig := f.Clone()
	info, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	// v0, v2, v3 and two webs for v1 = 5 webs.
	if info.NumWebs != 5 {
		t.Errorf("NumWebs = %d, want 5", info.NumWebs)
	}
	d1 := f.Blocks[0].Instrs[0].Def()
	d2 := f.Blocks[0].Instrs[2].Def()
	if d1 == d2 {
		t.Errorf("disjoint lifetimes share a web: %v", d1)
	}
	// Uses read the matching web.
	if f.Blocks[0].Instrs[1].Uses[0] != d1 {
		t.Error("first use reads wrong web")
	}
	if f.Blocks[0].Instrs[3].Uses[0] != d2 {
		t.Error("second use reads wrong web")
	}
	// Semantics unchanged.
	a, _ := ir.Interp(orig, map[ir.Reg]int64{orig.Params[0]: 5}, ir.InterpOptions{})
	b, _ := ir.Interp(f, map[ir.Reg]int64{f.Params[0]: 5}, ir.InterpOptions{})
	if a.Ret != b.Ret {
		t.Errorf("semantics changed: %d vs %d", a.Ret, b.Ret)
	}
}

func TestRenumberJoinsDefsReachingCommonUse(t *testing.T) {
	// v1 defined in both arms, used after the join: one web.
	f := ir.MustParse(`
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 10
  jump b3
b2:
  v1 = loadimm 20
  jump b3
b3:
  ret v1
}
`)
	_, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	d1 := f.Blocks[1].Instrs[0].Def()
	d2 := f.Blocks[2].Instrs[0].Def()
	if d1 != d2 {
		t.Errorf("defs reaching a common use got different webs: %v vs %v", d1, d2)
	}
	if f.Blocks[3].Instrs[0].Uses[0] != d1 {
		t.Error("joined use reads wrong web")
	}
}

func TestRenumberParams(t *testing.T) {
	f := ir.MustParse(`
func f(v5, v9) {
b0:
  v1 = add v5, v9
  ret v1
}
`)
	info, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if info.NumWebs != 3 {
		t.Errorf("NumWebs = %d, want 3", info.NumWebs)
	}
	// Params get the smallest web numbers, in order.
	if f.Params[0] != ir.Virt(0) || f.Params[1] != ir.Virt(1) {
		t.Errorf("params = %v", f.Params)
	}
	if f.Blocks[0].Instrs[0].Uses[0] != ir.Virt(0) || f.Blocks[0].Instrs[0].Uses[1] != ir.Virt(1) {
		t.Errorf("param uses not renumbered: %v", f.Blocks[0].Instrs[0])
	}
}

func TestRenumberLoopKeepsOneWeb(t *testing.T) {
	// The loop accumulator is one web (defs in b0 and b2 reach the use
	// in b2 and b3).
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 0
  jump b1
b1:
  v2 = cmp v1, v0
  branch v2, b2, b3
b2:
  v3 = loadimm 1
  v1 = add v1, v3
  jump b1
b3:
  ret v1
}
`)
	_, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	d0 := f.Blocks[0].Instrs[0].Def()
	d2 := f.Blocks[2].Instrs[1].Def()
	if d0 != d2 {
		t.Errorf("loop accumulator split into %v and %v", d0, d2)
	}
}

func TestRenumberRejectsPhi(t *testing.T) {
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
	if _, err := Renumber(f); err == nil {
		t.Error("Renumber accepted φ")
	}
}

func TestRenumberPhysUntouched(t *testing.T) {
	f := ir.MustParse(`
func f() {
b0:
  v0 = move r0
  v1 = add v0, v0
  r0 = move v1
  ret r0
}
`)
	if _, err := Renumber(f); err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if f.Blocks[0].Instrs[0].Uses[0] != ir.Phys(0) {
		t.Error("physical register was renumbered")
	}
	if f.Blocks[0].Instrs[2].Defs[0] != ir.Phys(0) {
		t.Error("physical def was renumbered")
	}
}

func TestRenumberOrigins(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 1
  v2 = add v1, v0
  ret v2
}
`)
	info, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	for w, origs := range info.Origins {
		if len(origs) != 1 {
			t.Errorf("web %d origins = %v, want exactly one", w, origs)
		}
	}
}

func TestRenumberValidatesAfter(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = loadimm 3
  v2 = mul v1, v0
  branch v2, b1, b2
b1:
  v2 = add v2, v1
  jump b2
b2:
  ret v2
}
`)
	if _, err := Renumber(f); err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if err := ir.Validate(f); err != nil {
		t.Fatalf("Validate after Renumber: %v", err)
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind(4)
	if u.find(0) == u.find(1) {
		t.Error("fresh sets joined")
	}
	u.union(0, 1)
	u.union(2, 3)
	if u.find(0) != u.find(1) || u.find(2) != u.find(3) {
		t.Error("union failed")
	}
	if u.find(0) == u.find(2) {
		t.Error("separate sets joined")
	}
	u.union(1, 3)
	if u.find(0) != u.find(2) {
		t.Error("transitive union failed")
	}
	u.grow(6)
	if u.find(5) != 5 {
		t.Error("grow broke")
	}
}

// entryLoopSrc loops back into the entry block: the parameters' webs
// must absorb the definitions that flow around the back edge, giving
// three webs (v0, v1, v2), not separate webs for the parameters and
// the loop-carried redefinitions.
const entryLoopSrc = `
func f(v0, v1) {
b0:
  v2 = add v0, v1
  v0 = addimm v2, 3
  v1 = addimm v1, -1
  branch v1, b0, b1
b1:
  ret v2
}
`

func TestRenumberLoopIntoEntry(t *testing.T) {
	f := ir.MustParse(entryLoopSrc)
	info, err := Renumber(f)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if info.NumWebs != 3 {
		t.Fatalf("NumWebs = %d, want 3:\n%s", info.NumWebs, f)
	}
	b0 := f.Blocks[0].Instrs
	if b0[0].Uses[0] != f.Params[0] || b0[1].Defs[0] != f.Params[0] {
		t.Errorf("v0's parameter and loop-carried def split:\n%s", f)
	}
	if b0[0].Uses[1] != f.Params[1] || b0[2].Defs[0] != f.Params[1] {
		t.Errorf("v1's parameter and loop-carried def split:\n%s", f)
	}
}
