package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// statsRecord strips the telemetry pointer so two Stats can be
// compared with == — every per-phase counter the driver reports must
// match, not just the digest.
func statsRecord(s *regalloc.Stats) regalloc.Stats {
	c := *s
	c.Telemetry = nil
	return c
}

// diffSelect runs f through alloc twice — incremental selector and
// the retained reference oracle — and requires a bit-identical
// outcome: same FuncDigest (assignments, spill code, rewritten code)
// and same driver statistics.
func diffSelect(t *testing.T, f *ir.Func, m *target.Machine, alloc *core.Allocator, label string) {
	t.Helper()
	outF, statsF, err := regalloc.Run(f, m, alloc, regalloc.Options{})
	if err != nil {
		t.Fatalf("%s/%s: incremental: %v", label, f.Name, err)
	}
	outR, statsR, err := regalloc.Run(f, m, alloc.WithReferenceSelector(), regalloc.Options{})
	if err != nil {
		t.Fatalf("%s/%s: reference: %v", label, f.Name, err)
	}
	if df, dr := FuncDigest(f.Name, statsF, outF), FuncDigest(f.Name, statsR, outR); df != dr {
		t.Errorf("%s/%s: digest diverged from reference selector:\n  incremental %s\n  reference   %s",
			label, f.Name, df, dr)
	}
	if rf, rr := statsRecord(statsF), statsRecord(statsR); rf != rr {
		t.Errorf("%s/%s: stats diverged from reference selector:\n  incremental %+v\n  reference   %+v",
			label, f.Name, rf, rr)
	}
}

// TestSelectorMatchesReference pins the tentpole equivalence: the
// incremental selector (indexed ready heap, maintained forbidden-
// register masks, recolor passes that skip clean copy components,
// cache current scores and read neighbor-color counts) is
// bit-identical to the retained full-scan reference, which
// re-evaluates every unhonored move in every recolor pass against
// per-color occupancy rows, across every workload profile, both
// preference modes, and every ablation variant.
func TestSelectorMatchesReference(t *testing.T) {
	m := target.UsageModel(16)
	profiles := append(workload.Benchmarks(), workload.Large())
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, f := range workload.Generate(p, m) {
				diffSelect(t, f, m, core.New(), "pref-full")
				diffSelect(t, f, m, core.NewCoalesceOnly(), "pref-coalesce")
			}
		})
	}
	t.Run("ablations", func(t *testing.T) {
		t.Parallel()
		p := workload.Benchmarks()[4] // mpegaudio: pair-rich, loop-heavy
		funcs := workload.Generate(p, m)
		for _, v := range core.Variants() {
			for _, f := range funcs {
				diffSelect(t, f, m, core.NewAblated(v.Ablation), v.Label)
			}
		}
	})
}

// FuzzSelectorDifferential parses its input as IR, allocates it with
// pref-full at k = 4 + kb%29 on the usage model under RunChecked, and
// requires the incremental selector to give the reference selector's
// digest, or its error. The seeds are the metamorph corpus at k = 4
// and 8. Functions past a small size are skipped: the interference
// graph is quadratic in the number of webs.
func FuzzSelectorDifferential(f *testing.F) {
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
		f.Add(string(src), byte(0))
		f.Add(string(src), byte(4))
	}
	f.Fuzz(func(t *testing.T, src string, kb byte) {
		fn, err := ir.Parse(src)
		if err != nil || fn.NumVirt > 256 || len(src) > 1<<14 {
			return
		}
		m := target.UsageModel(4 + int(kb%29))
		outF, statsF, errF := regalloc.RunChecked(fn, m, core.New(), regalloc.Options{})
		outR, statsR, errR := regalloc.RunChecked(fn, m, core.New().WithReferenceSelector(), regalloc.Options{})
		switch {
		case errF != nil || errR != nil:
			if fmt.Sprint(errF) != fmt.Sprint(errR) {
				t.Fatalf("k=%d: errors differ:\n  incremental %v\n  reference   %v", m.NumRegs, errF, errR)
			}
		case FuncDigest(fn.Name, statsF, outF) != FuncDigest(fn.Name, statsR, outR):
			t.Fatalf("k=%d: digest diverged from reference selector", m.NumRegs)
		}
	})
}
