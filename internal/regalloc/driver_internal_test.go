package regalloc

import (
	"slices"
	"testing"

	"prefcolor/internal/bitset"
	"prefcolor/internal/ir"
)

// TestReadBeforeWritten pins the classifier the spill inserters use to
// decide which webs need their (undefined) entry value captured: webs
// with an upward-exposed use on some path from entry, excluding
// parameters. Both the one-walk-per-web reference and the one-pass
// liveIntoEntry the inserters use must give the pinned answers.
func TestReadBeforeWritten(t *testing.T) {
	// b0 -> b1 -> b2, with a loop b2 -> b1.
	//   v0: param, used in b1            -> false (defined by caller)
	//   v1: defined b0, used b1          -> false
	//   v2: used b1, defined nowhere     -> true
	//   v3: def and use in one instr b2  -> true (use reads pre-def value)
	//   v4: defined b1, used b2          -> false on first visit? no:
	//       every path to b2 passes b1's def -> false
	//   v5: used b2, defined b1 AFTER the loop edge? b1 defines v5
	//       before b2 ever runs -> false
	src := `func f(r0) {
b0:
  v1 = loadimm 7
  jump b1
b1:
  v6 = add v0, v2
  v1 = addimm v1, 1
  v4 = move v1
  v5 = move v1
  jump b2
b2:
  v3 = addimm v3, -1
  v7 = add v4, v5
  branch v7, b1, b3
b3:
  ret v1
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// v0 is not a declared param here (params are r0), so patch one in
	// to cover the parameter exemption.
	f.Params = append(f.Params, ir.Virt(0))
	want := map[int]bool{0: false, 1: false, 2: true, 3: true, 4: false, 5: false}
	webs := []int{0, 1, 2, 3, 4, 5}
	var sc spillScratch
	sc.mark(webs, f.NumVirt)
	live := liveIntoEntry(f, &sc, len(webs))
	for w, exp := range want {
		if got := readBeforeWritten(f, ir.Virt(w)); got != exp {
			t.Errorf("readBeforeWritten(v%d) = %v, want %v", w, got, exp)
		}
		isParam := slices.Contains(f.Params, ir.Virt(w))
		if got := bitset.Has(live, w) && !isParam; got != exp {
			t.Errorf("liveIntoEntry(v%d) = %v (param %v), want %v", w, got, isParam, exp)
		}
	}
}
