package linearscan_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefcolor/internal/bench"
	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/metamorph"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// machines are the models the sweep allocates on: the paper's usage
// model at the figures' register counts plus the irregular x86- and
// s390-flavored models, and a low-pressure 8-register configuration
// that forces spilling on the larger functions.
func machines() []*target.Machine {
	return []*target.Machine{
		target.UsageModel(8),
		target.UsageModel(16),
		target.UsageModel(32),
		target.X86Like(16),
		target.S390Like(16),
	}
}

// validated runs f through Run with per-round CheckResult and the
// final CheckAllocation oracle on.
func validated(t *testing.T, f *ir.Func, m *target.Machine, ws *linearscan.Workspace) (*ir.Func, *regalloc.Stats) {
	t.Helper()
	out, stats, err := linearscan.Run(f, m, linearscan.RunOptions{Validate: true, Workspace: ws})
	if err != nil {
		t.Fatalf("%s %s: %v", m.Name, f.Name, err)
	}
	if stats.Rounds < 1 {
		t.Fatalf("%s %s: no rounds recorded", m.Name, f.Name)
	}
	return out, stats
}

// TestWorkloadSweep runs the paper's profiles and the oversized large
// one on every machine model under validation: every round must pass
// CheckResult, spill temporaries must never re-spill, and the final
// output must pass the whole oracle (phys-only code, pairs, limits,
// calling convention, spill slots, interpreter equivalence).
func TestWorkloadSweep(t *testing.T) {
	profiles := append(workload.Benchmarks(), workload.Large())
	for _, m := range machines() {
		ws := linearscan.NewFastWorkspace()
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				validated(t, f, m, ws)
			}
		}
	}
}

// TestFuzzSweep drives the metamorphic harness's seeded random
// programs through Run under validation.
func TestFuzzSweep(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		for _, m := range metamorph.Machines() {
			validated(t, workload.GenerateRawFunc(workload.Fuzz(), m, seed), m, nil)
		}
	}
}

// TestDeterministic pins digest stability: a fresh run, a run on a
// reused fast-path workspace, and a registry run on a reused driver
// workspace produce identical rewritten code.
func TestDeterministic(t *testing.T) {
	m := target.UsageModel(16)
	ws := linearscan.NewFastWorkspace()
	rws := regalloc.NewWorkspace()
	for _, f := range workload.Generate(workload.Benchmarks()[0], m) {
		out, st, err := linearscan.Run(f, m, linearscan.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := bench.FuncDigest(f.Name, st, out)
		if out, st, err = linearscan.Run(f, m, linearscan.RunOptions{Workspace: ws}); err != nil {
			t.Fatal(err)
		}
		if got := bench.FuncDigest(f.Name, st, out); got != want {
			t.Fatalf("%s: digest diverges with workspace reuse: %s vs %s", f.Name, got, want)
		}
		if out, st, err = regalloc.Run(f, m, linearscan.New(), regalloc.Options{Workspace: rws}); err != nil {
			t.Fatal(err)
		}
		if got := bench.FuncDigest(f.Name, st, out); got != want {
			t.Fatalf("%s: digest diverges on a reused driver workspace: %s vs %s", f.Name, got, want)
		}
	}
}

// served runs f the way the daemon's fast tier does — Validate off,
// on a reused workspace — and requires the digest of a fresh validated
// run, so the code the tier serves is the code the oracle audited.
func served(t *testing.T, f *ir.Func, m *target.Machine, ws *linearscan.Workspace) *ir.Func {
	t.Helper()
	out, stats, err := linearscan.Run(f, m, linearscan.RunOptions{Workspace: ws})
	if err != nil {
		t.Fatalf("%s %s: %v", m.Name, f.Name, err)
	}
	vout, vstats := validated(t, f, m, nil)
	if got, want := bench.FuncDigest(f.Name, stats, out), bench.FuncDigest(f.Name, vstats, vout); got != want {
		t.Fatalf("%s %s: served digest %s, validated %s", m.Name, f.Name, got, want)
	}
	return out
}

// TestFastWorkloadSweep runs every profile on every machine model in
// the served configuration, one workspace per machine.
func TestFastWorkloadSweep(t *testing.T) {
	profiles := append(workload.Benchmarks(), workload.Large())
	for _, m := range machines() {
		ws := linearscan.NewFastWorkspace()
		for _, p := range profiles {
			for _, f := range workload.Generate(p, m) {
				served(t, f, m, ws)
			}
		}
	}
}

// TestFastFuzzSweep runs the seeded random programs in the served
// configuration, one workspace across every seed and machine.
func TestFastFuzzSweep(t *testing.T) {
	ws := linearscan.NewFastWorkspace()
	for seed := int64(1); seed <= 64; seed++ {
		for _, m := range metamorph.Machines() {
			served(t, workload.GenerateRawFunc(workload.Fuzz(), m, seed), m, ws)
		}
	}
}

// TestFastDeterministic carries one workspace across machines with
// different register counts, and runs each function twice on it: every
// run must match a fresh one, so no row width or scan state leaks from
// one call into the next.
func TestFastDeterministic(t *testing.T) {
	ws := linearscan.NewFastWorkspace()
	for _, m := range []*target.Machine{target.UsageModel(32), target.UsageModel(8), target.X86Like(16)} {
		for _, f := range workload.Generate(workload.Benchmarks()[0], m) {
			out, st, err := linearscan.Run(f, m, linearscan.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := bench.FuncDigest(f.Name, st, out)
			for run := 0; run < 2; run++ {
				if out, st, err = linearscan.Run(f, m, linearscan.RunOptions{Workspace: ws}); err != nil {
					t.Fatal(err)
				}
				if got := bench.FuncDigest(f.Name, st, out); got != want {
					t.Fatalf("%s %s run %d: digest diverges on the carried workspace: %s vs %s",
						m.Name, f.Name, run, got, want)
				}
			}
		}
	}
}

// TestFastQualitySane holds the served configuration to TestQualitySane's
// bound on every machine model, not only the 16-register usage model.
func TestFastQualitySane(t *testing.T) {
	for _, m := range machines() {
		ws := linearscan.NewFastWorkspace()
		var fast, full float64
		for _, f := range workload.Generate(workload.Large(), m) {
			fast += perfmodel.Estimate(served(t, f, m, ws), m).Cycles
			out, _, err := regalloc.RunChecked(f, m, core.New(), regalloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			full += perfmodel.Estimate(out, m).Cycles
		}
		if fast > 3*full {
			t.Fatalf("%s: linearscan estimated cycles %.0f vs pref-full %.0f: more than 3x worse", m.Name, fast, full)
		}
		t.Logf("%s: linearscan %.0f, pref-full %.0f (ratio %.2f)", m.Name, fast, full, fast/full)
	}
}

// TestRegistered pins the registry wiring: the daemon and harness
// resolve the allocator by name.
func TestRegistered(t *testing.T) {
	a, err := bench.NewAllocator("linearscan")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "linearscan" {
		t.Fatalf("Name() = %q", a.Name())
	}
	found := false
	for _, n := range bench.AllocatorNames() {
		if n == "linearscan" {
			found = true
		}
	}
	if !found {
		t.Fatalf("linearscan missing from AllocatorNames: %v", bench.AllocatorNames())
	}
}

// TestRegistryRunsServingPath pins that the registered allocator —
// what the harness, the metamorphic matrix, cmd/compare and the facade
// run — is the code the daemon's fast tier serves: RunChecked through
// the registry and a bare Run give the same digest on every large
// function.
func TestRegistryRunsServingPath(t *testing.T) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	for _, f := range funcs {
		alloc, err := regalloc.ByName("linearscan")
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := regalloc.RunChecked(f, m, alloc, regalloc.Options{})
		if err != nil {
			t.Fatalf("%s: RunChecked: %v", f.Name, err)
		}
		got := bench.FuncDigest(f.Name, st, out)
		if out, st, err = linearscan.Run(f, m, linearscan.RunOptions{}); err != nil {
			t.Fatalf("%s: Run: %v", f.Name, err)
		}
		if want := bench.FuncDigest(f.Name, st, out); got != want {
			t.Errorf("%s: registry digest %s, serving path %s", f.Name, got, want)
		}
	}
	if len(funcs) != 40 {
		t.Fatalf("large workload has %d functions, want 40", len(funcs))
	}
}

// TestSpillOptions pins that the driver's optional spill strategies,
// which Run does not implement, are refused through regalloc.Run and
// RunChecked rather than silently ignored.
func TestSpillOptions(t *testing.T) {
	m := target.UsageModel(8)
	f := workload.Generate(workload.Large(), m)[0]
	for _, opts := range []regalloc.Options{
		{Rematerialize: true},
		{BlockLocalSpills: true},
		{Rematerialize: true, BlockLocalSpills: true},
	} {
		if _, _, err := regalloc.Run(f, m, linearscan.New(), opts); err == nil {
			t.Errorf("Run with %+v: no error", opts)
		}
		if _, _, err := regalloc.RunChecked(f, m, linearscan.New(), opts); err == nil {
			t.Errorf("RunChecked with %+v: no error", opts)
		}
	}
}

// TestExpiredContext pins that an already-done context stops the
// registered allocator before any work: the context error wins over
// the φ rejection Run would report, and the driver workspace's
// allocator slot stays empty.
func TestExpiredContext(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  jump b1
b1:
  v1 = phi v0
  ret v1
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := regalloc.NewWorkspace()
	_, _, err := regalloc.Run(f, target.UsageModel(8), linearscan.New(), regalloc.Options{Context: ctx, Workspace: ws})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ws.AllocatorScratch() != nil {
		t.Fatal("workspace scratch populated: work ran after the context expired")
	}
}

// TestQualitySane bounds the fast tier's quality loss on the large
// workload: register-granularity hulls cost spills and moves, but the
// estimated cycles must stay within a small multiple of pref-full — a
// tripled estimate would mean the intervals or the spill heuristic
// regressed to nonsense.
func TestQualitySane(t *testing.T) {
	m := target.UsageModel(16)
	var fast, full float64
	for _, f := range workload.Generate(workload.Large(), m) {
		out, _ := validated(t, f, m, nil)
		fast += perfmodel.Estimate(out, m).Cycles
		out, _, err := regalloc.RunChecked(f, m, core.New(), regalloc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		full += perfmodel.Estimate(out, m).Cycles
	}
	if fast > 3*full {
		t.Fatalf("linearscan estimated cycles %.0f vs pref-full %.0f: more than 3x worse", fast, full)
	}
	t.Logf("estimated cycles: linearscan %.0f, pref-full %.0f (ratio %.2f)", fast, full, fast/full)
}

// TestGoldenDigests pins the fast tier's answers: per machine, one
// sha256 over the bench.FuncDigest of every allocation, for the
// paper's profiles plus the large one on machines() and for fuzz seeds
// 1–64 on the metamorphic matrix's machines. A line that moves means
// the daemon now serves different code. UPDATE_GOLDEN=1 rewrites
// testdata/digests.golden.
func TestGoldenDigests(t *testing.T) {
	var sb strings.Builder
	line := func(label string, m *target.Machine, funcs []*ir.Func) {
		h := sha256.New()
		for _, f := range funcs {
			out, stats, err := linearscan.Run(f, m, linearscan.RunOptions{})
			if err != nil {
				t.Fatalf("%s %s %s: %v", label, m.Name, f.Name, err)
			}
			fmt.Fprintln(h, bench.FuncDigest(f.Name, stats, out))
		}
		fmt.Fprintf(&sb, "%s %s %d %x\n", label, m.Name, len(funcs), h.Sum(nil))
	}
	profiles := append(workload.Benchmarks(), workload.Large())
	for _, m := range machines() {
		var funcs []*ir.Func
		for _, p := range profiles {
			funcs = append(funcs, workload.Generate(p, m)...)
		}
		line("profiles", m, funcs)
	}
	for _, m := range metamorph.Machines() {
		var funcs []*ir.Func
		for seed := int64(1); seed <= 64; seed++ {
			funcs = append(funcs, workload.GenerateRawFunc(workload.Fuzz(), m, seed))
		}
		line("fuzz", m, funcs)
	}

	path := filepath.Join("testdata", "digests.golden")
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fast-path digests differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// benchFast measures Run per large-workload sweep — the latency the
// daemon's fast tier pays.
func benchFast(b *testing.B, opts linearscan.RunOptions) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	opts.Workspace = linearscan.NewFastWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			if _, _, err := linearscan.Run(f, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLinearScanFastLarge(b *testing.B) { benchFast(b, linearscan.RunOptions{}) }

// BenchmarkLinearScanFastValidated is Run with validation on — what
// the checks cost, and what regalloc.Run pays by default.
func BenchmarkLinearScanFastValidated(b *testing.B) {
	benchFast(b, linearscan.RunOptions{Validate: true})
}

// BenchmarkPrefFullLarge is the pref-full sweep the fast tier stands
// in for.
func BenchmarkPrefFullLarge(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	ws := regalloc.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			if _, _, err := regalloc.Run(f, m, core.New(), regalloc.Options{Workspace: ws}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
