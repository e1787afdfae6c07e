package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"prefcolor/internal/bench"
	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/metamorph"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// diffSelect allocates f on m with alloc, comparing every round with
// the reference selector.
func diffSelect(t *testing.T, f *ir.Func, m *target.Machine, alloc *core.Allocator) {
	t.Helper()
	if _, _, err := regalloc.Run(f, m, core.NewReferenceDiff(t, alloc, false), regalloc.Options{}); err != nil {
		t.Fatalf("%s/%s on %s: %v", alloc.Name(), f.Name, m.Name, err)
	}
}

// TestSelectorMatchesReference pins the selector to the reference
// round by round: every node's color, the spill set in order and the
// number of recolored nodes. It covers the nine profiles and Large at
// k = 16 and workload.Fuzz() seeds 1–200 at k = 4 and 8, in both
// preference modes, and every ablation variant on mpegaudio.
func TestSelectorMatchesReference(t *testing.T) {
	m := target.UsageModel(16)
	modes := []*core.Allocator{core.New(), core.NewCoalesceOnly()}
	for _, p := range append(workload.Benchmarks(), workload.Large()) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, f := range workload.Generate(p, m) {
				for _, a := range modes {
					diffSelect(t, f, m, a)
				}
			}
		})
	}
	t.Run("ablations", func(t *testing.T) {
		t.Parallel()
		funcs := workload.Generate(workload.Benchmarks()[4], m) // mpegaudio: pair-rich, loop-heavy
		for _, v := range core.Variants() {
			for _, f := range funcs {
				diffSelect(t, f, m, core.NewAblated(v.Ablation))
			}
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		t.Parallel()
		for _, k := range []int{4, 8} {
			m := target.UsageModel(k)
			for seed := int64(1); seed <= 200; seed++ {
				f := workload.GenerateRawFunc(workload.Fuzz(), m, seed)
				for _, a := range modes {
					diffSelect(t, f, m, a)
				}
			}
		}
	})
}

// TestSelectorMatchesReferenceCorpus replays every metamorph corpus
// reproducer — programs that each broke some allocator configuration
// once — through the per-round reference check, on the case's own
// recorded machine.
func TestSelectorMatchesReferenceCorpus(t *testing.T) {
	cases, err := metamorph.LoadCorpus(filepath.Join("..", "metamorph", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Skip("empty corpus")
	}
	machines := map[string]*target.Machine{}
	for _, m := range metamorph.Machines() {
		machines[m.Name] = m
	}
	for _, c := range cases {
		m, ok := machines[c.Machine]
		if !ok {
			t.Fatalf("%s: machine %q not in Machines()", c.File, c.Machine)
		}
		diffSelect(t, c.F, m, core.New())
		diffSelect(t, c.F, m, core.NewCoalesceOnly())
	}
}

// FuzzSelectorDifferential parses its input as IR and allocates it with
// pref-full at k = 4 + kb%29 on the usage model under RunChecked,
// comparing every round with the reference selector. A second run also
// recolors spilling rounds, in both selectors: the fixup must keep the
// spill set and CheckResult passing, and the run must give the first's
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
		outF, statsF, errF := regalloc.RunChecked(fn, m, core.NewReferenceDiff(t, core.New(), false), regalloc.Options{})
		outS, statsS, errS := regalloc.RunChecked(fn, m, core.NewReferenceDiff(t, core.New(), true), regalloc.Options{})
		switch {
		case errF != nil || errS != nil:
			if fmt.Sprint(errF) != fmt.Sprint(errS) {
				t.Fatalf("k=%d: errors differ:\n  plain                %v\n  spill-round recolor  %v", m.NumRegs, errF, errS)
			}
		case bench.FuncDigest(fn.Name, statsF, outF) != bench.FuncDigest(fn.Name, statsS, outS):
			t.Fatalf("k=%d: recoloring spilling rounds changed the digest", m.NumRegs)
		}
	})
}
