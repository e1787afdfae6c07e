package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// workspaceAllocators covers both pipeline code paths plus the
// coalesce-only preference mode, whose selector takes different
// branches through the pooled buffers.
var workspaceAllocators = []string{"chaitin", "pref-full", "pref-coalesce"}

// TestWorkspaceReuseDigestsMatch is the pooling correctness bar: one
// workspace reused across every function of a workload must produce
// the exact allocation outcome of fresh per-Run state. The workspace
// is shared sequentially across all functions (and all their spill
// rounds), so every scratch buffer gets borrowed dirty many times.
func TestWorkspaceReuseDigestsMatch(t *testing.T) {
	m := target.UsageModel(16)
	for _, p := range []workload.Profile{workload.Benchmarks()[4], workload.Benchmarks()[1]} {
		funcs := workload.Generate(p, m)
		for _, name := range workspaceAllocators {
			fresh, err := AllocationDigest(funcs, m, name)
			if err != nil {
				t.Fatalf("%s/%s fresh: %v", p.Name, name, err)
			}
			reused, err := AllocationDigestOpts(funcs, m, name,
				regalloc.Options{Workspace: regalloc.NewWorkspace()})
			if err != nil {
				t.Fatalf("%s/%s reused: %v", p.Name, name, err)
			}
			if fresh != reused {
				t.Errorf("%s/%s: workspace reuse changed the allocation outcome\nfresh:  %s\nreused: %s",
					p.Name, name, fresh, reused)
			}
		}
	}
}

// TestWorkspaceReuseAcrossSpillRounds pins the round-loop hygiene: a
// register-starved machine forces several spill rounds through one
// workspace, and a workspace pre-dirtied by a different function must
// still reproduce the fresh outcome bit for bit. This is the
// regression test for stale per-round state (marker sets, spill-temp
// flags, selector buffers) surviving a borrow.
func TestWorkspaceReuseAcrossSpillRounds(t *testing.T) {
	m := target.UsageModel(4) // starved: every heavy function iterates
	funcs := workload.Generate(workload.Benchmarks()[4], m)

	maxRounds := 0
	for i, f := range funcs {
		alloc, err := NewAllocator("pref-full")
		if err != nil {
			t.Fatal(err)
		}
		freshOut, freshStats, err := regalloc.Run(f, m, alloc, regalloc.Options{})
		if err != nil {
			t.Fatalf("func %d fresh: %v", i, err)
		}
		if freshStats.Rounds > maxRounds {
			maxRounds = freshStats.Rounds
		}

		// Dirty a workspace on a *different* function first, then reuse
		// it: everything left behind must be invisible.
		ws := regalloc.NewWorkspace()
		warm, err := NewAllocator("pref-full")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := regalloc.Run(funcs[(i+1)%len(funcs)], m, warm, regalloc.Options{Workspace: ws}); err != nil {
			t.Fatalf("func %d warmup: %v", i, err)
		}
		alloc2, err := NewAllocator("pref-full")
		if err != nil {
			t.Fatal(err)
		}
		reusedOut, reusedStats, err := regalloc.Run(f, m, alloc2, regalloc.Options{Workspace: ws})
		if err != nil {
			t.Fatalf("func %d reused: %v", i, err)
		}
		if FuncDigest(f.Name, freshStats, freshOut) != FuncDigest(f.Name, reusedStats, reusedOut) {
			t.Errorf("func %d (%s): dirty-workspace run diverged after %d rounds",
				i, f.Name, freshStats.Rounds)
		}
	}
	if maxRounds < 3 {
		t.Fatalf("workload only reached %d spill rounds; the test needs ≥3 to exercise per-round clearing", maxRounds)
	}
}

// TestAllocateAllWorkerCountInvariance runs the batch driver at
// several pool widths — each worker owning a private reused workspace
// — and checks every width reproduces the sequential digest. Under
// -race this also exercises concurrent workspace ownership.
func TestAllocateAllWorkerCountInvariance(t *testing.T) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Benchmarks()[4], m)
	want, err := AllocationDigest(funcs, m, "pref-full")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := regalloc.AllocateAll(funcs, m, regalloc.BatchOptions{
			Options: regalloc.Options{},
			NewAllocator: func() regalloc.Allocator {
				alloc, _ := NewAllocator("pref-full")
				return alloc
			},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := sha256.New()
		for i, f := range funcs {
			writeFuncDigest(h, f.Name, res.Stats[i], res.Funcs[i].AppendText(nil))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("workers=%d: batch digest %s != sequential %s", workers, got, want)
		}
	}
}

// TestTelemetryMemCountersPopulated checks the new memory observables:
// a telemetry-enabled run reports its allocation delta, and the digest
// stays byte-identical with the counters on (instrumentation observes,
// never steers).
func TestTelemetryMemCountersPopulated(t *testing.T) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Benchmarks()[1], m)
	plain, err := AllocationDigest(funcs, m, "pref-full")
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := AllocationDigestOpts(funcs, m, "pref-full",
		regalloc.Options{CollectTelemetry: true, Workspace: regalloc.NewWorkspace()})
	if err != nil {
		t.Fatal(err)
	}
	if plain != instrumented {
		t.Errorf("telemetry + workspace changed the outcome: %s != %s", plain, instrumented)
	}

	alloc, err := NewAllocator("pref-full")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := regalloc.Run(funcs[0], m, alloc, regalloc.Options{CollectTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Telemetry == nil {
		t.Fatal("no telemetry snapshot")
	}
	if stats.Telemetry.BytesAllocated == 0 {
		t.Error("BytesAllocated not populated")
	}
	_ = fmt.Sprintf("%d", stats.Telemetry.GCCycles) // GC cycles may legitimately be zero
}
