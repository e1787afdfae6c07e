package regalloc_test

import (
	"testing"

	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// TestSmallKSweep runs the allocators that are total on two- and
// three-register machines over fuzz seeds 1–200 under RunChecked: many
// spill rounds per function (pref-full averages 3.4), so it also
// stresses the spill-round patch. The other allocators still fail
// here (spill temporaries spilled again, a stranded linear-scan
// temporary) and join the list once they are fixed.
func TestSmallKSweep(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for _, name := range []string{"pref-full", "pref-coalesce", "briggs-conservative", "iterated"} {
		alloc := allocatorByName(t, name)
		for _, k := range []int{2, 3} {
			m := target.UsageModel(k)
			for seed := int64(1); seed <= seeds; seed++ {
				f := workload.GenerateRawFunc(fuzzProfile, m, seed)
				if _, _, err := regalloc.RunChecked(f, m, alloc, regalloc.Options{}); err != nil {
					t.Errorf("%s k=%d seed %d: %v", name, k, seed, err)
				}
			}
		}
	}
}
