package bench

import (
	"io"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// TestAllocationDeterminism runs the full pipeline twice over the
// same generated workload and asserts bit-identical assignments and
// spill sets. This guards the dense (slice-indexed) state migration
// and any future parallel tie-breaking: the map-based implementation
// left a few iteration-order hazards (selector queues, limit-derived
// preferences) that only surfaced as run-to-run jitter.
func TestAllocationDeterminism(t *testing.T) {
	machines := []*target.Machine{
		target.UsageModel(16),
		// X86Like carries limited-register-usage constraints, the one
		// preference source that used to be emitted in map order.
		target.X86Like(16).WithIA64AddImmLimit(),
		target.S390Like(24),
	}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := workload.Benchmarks()[4] // mpegaudio: pair-rich, loop-heavy
			funcs := workload.Generate(p, m)
			for _, alloc := range []string{"pref-full", "pref-coalesce", "chaitin"} {
				first, err := AllocationDigest(funcs, m, alloc)
				if err != nil {
					t.Fatalf("%s first run: %v", alloc, err)
				}
				second, err := AllocationDigest(funcs, m, alloc)
				if err != nil {
					t.Fatalf("%s second run: %v", alloc, err)
				}
				if first != second {
					t.Errorf("%s: allocation digest differs between identical runs:\n  %s\n  %s", alloc, first, second)
				}
				// Telemetry is observation-only: full collection plus
				// an event trace must leave every assignment, spill
				// set, and rewrite bit-identical.
				instrumented, err := AllocationDigestOpts(funcs, m, alloc, regalloc.Options{
					CollectTelemetry: true,
					TraceWriter:      io.Discard,
				})
				if err != nil {
					t.Fatalf("%s instrumented run: %v", alloc, err)
				}
				if instrumented != first {
					t.Errorf("%s: telemetry perturbed the allocation:\n  quiet %s\n  loud  %s", alloc, first, instrumented)
				}
			}
		})
	}
}

// TestTextDigestMatchesAllocationDigest checks the daemon's
// render-once digest: TextDigest over an allocation's rendered text
// equals FuncDigest and the single-function AllocationDigest on every
// function of the nine profiles and Large at k = 16.
func TestTextDigestMatchesAllocationDigest(t *testing.T) {
	m := target.UsageModel(16)
	for _, p := range append(workload.Benchmarks(), workload.Large()) {
		for _, f := range workload.Generate(p, m) {
			alloc, err := NewAllocator("pref-full")
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := regalloc.Run(f, m, alloc, regalloc.Options{})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			got := TextDigest(f.Name, stats, out.String())
			if want := FuncDigest(f.Name, stats, out); got != want {
				t.Fatalf("%s: TextDigest %s, FuncDigest %s", f.Name, got, want)
			}
			want, err := AllocationDigest([]*ir.Func{f}, m, "pref-full")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: TextDigest %s, AllocationDigest %s", f.Name, got, want)
			}
		}
	}
}
