package bench

import (
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// TestEntryLoopAllAllocators runs a function that loops back into its
// entry block through every registered allocator under the validity
// oracle. The parameters and their loop-carried redefinitions must
// share webs; splitting them lets an allocator give the back edge's
// values different registers than the entry's, which the oracle's
// behavior check rejects.
func TestEntryLoopAllAllocators(t *testing.T) {
	const src = `
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
	for _, k := range []int{4, 8, 16} {
		m := target.UsageModel(k)
		for _, name := range regalloc.RegisteredNames() {
			alloc, err := regalloc.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := regalloc.RunChecked(ir.MustParse(src), m, alloc, regalloc.Options{}); err != nil {
				t.Errorf("k=%d %s: %v", k, name, err)
			}
		}
	}
}
