package bench

import (
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
// incremental selector (lazy max-heap ready set, maintained forbidden-
// register masks, recolor passes that skip clean copy components and
// cache current scores) is bit-identical to the retained full-scan
// reference, which re-evaluates every unhonored move in every recolor
// pass, across every workload profile, both preference modes, and
// every ablation variant.
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
