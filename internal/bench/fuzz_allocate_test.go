package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// FuzzAllocate drives the whole pipeline from bytes, as the daemon
// does: a binary or text function is decoded, ValidateInput screens
// it, and pref-full and the registered linearscan allocate it under
// RunChecked at k = 4, 8 and 16. Input the decoder or ValidateInput
// refuses is skipped. A finding is a panic or an allocation the
// end-to-end oracle rejects ("oracle:"). An error from the driver
// itself is not: both allocators still fail on some accepted inputs
// at k=4, as corpus seeds 001 and 002 do — pref-full by spilling a
// spill temporary again, linearscan by stranding one. Seeds are the
// metamorph corpus, in both wire forms.
func FuzzAllocate(f *testing.F) {
	dir := filepath.Join("..", "metamorph", "testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		fn, err := ir.Parse(string(src))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
		f.Add(ir.EncodeBinary(fn))
	}
	linearScan, err := NewAllocator("linearscan")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		var fn *ir.Func
		var err error
		if ir.IsBinary(data) {
			fn, err = ir.DecodeBinary(data)
		} else {
			fn, err = ir.Parse(string(data))
		}
		if err != nil || fn.NumVirt > 256 {
			return
		}
		for _, k := range []int{4, 8, 16} {
			m := target.UsageModel(k)
			if regalloc.ValidateInput(fn, m) != nil {
				continue
			}
			for _, alloc := range []regalloc.Allocator{core.New(), linearScan} {
				_, _, err := regalloc.RunChecked(fn, m, alloc, regalloc.Options{})
				if err != nil && strings.HasPrefix(err.Error(), "oracle:") {
					t.Fatalf("%s k=%d: %v", alloc.Name(), k, err)
				}
			}
		}
	})
}
