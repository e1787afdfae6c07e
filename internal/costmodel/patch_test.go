package costmodel

import (
	"testing"

	"prefcolor/internal/cfg"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/target"
)

// TestPatchMatchesAnalyze checks Patch's operand walk against
// AnalyzeInto on a function whose every value is block-local, the
// shape of spill code: all its webs count as new, so every cost comes
// from the occurrences ig.PatchRenumber records. v2 lives across both
// calls of a loop block, v1 is redefined, and v3 is read twice by one
// instruction.
func TestPatchMatchesAnalyze(t *testing.T) {
	src := `
func f(v0) {
b0:
  v1 = add v0, v0
  v1 = add v1, v0
  store v1, v0, 0
  jump b1
b1:
  v2 = loadimm 3
  v3 = call @g v2
  v4 = call @h v3
  v5 = add v3, v3
  v6 = add v2, v5
  branch v6, b1, b2
b2:
  v7 = loadimm 0
  ret v7
}
`
	m := target.UsageModel(16)
	want := ir.MustParse(src)
	if _, err := ig.Renumber(want); err != nil {
		t.Fatal(err)
	}
	loops := cfg.FindLoops(want, cfg.NewDomTree(want))
	wantInfo := Analyze(want, m, loops, liveness.Compute(want))

	got := ir.MustParse(src)
	var p ig.SpillPatch
	if _, err := ig.PatchRenumber(got, &ig.RenumberScratch{}, &p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("patched numbering:\n%s\nrebuild:\n%s", got, want)
	}
	gotInfo := Patch(&Info{}, &Info{}, loops, got.NumVirt, p.OldOf, p.Occurrences)
	for w := 0; w < want.NumVirt; w++ {
		if gotInfo.SpillCosts[w] != wantInfo.SpillCosts[w] || gotInfo.OpCosts[w] != wantInfo.OpCosts[w] || gotInfo.CrossFreq[w] != wantInfo.CrossFreq[w] {
			t.Errorf("v%d: spill %v op %v cross %v, Analyze %v %v %v", w,
				gotInfo.SpillCosts[w], gotInfo.OpCosts[w], gotInfo.CrossFreq[w],
				wantInfo.SpillCosts[w], wantInfo.OpCosts[w], wantInfo.CrossFreq[w])
		}
	}
	if cross := wantInfo.CrossFreq[got.Blocks[1].Instrs[0].Def().VirtNum()]; cross != 20 {
		t.Errorf("the loop's v2 crosses %v frequency-weighted calls, want 20", cross)
	}
}
