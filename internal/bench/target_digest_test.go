package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

const targetDigestGolden = "testdata/digest_targets.txt"

// targetDigestMachines are the register files the selection masks must
// handle: parity pairs (UsageModel), sequential pairs (S390Like),
// Allowed register sets (X86Like with the IA-64 add limit), and a file
// wider than one 64-bit word (UsageModel(70)).
func targetDigestMachines() []*target.Machine {
	return []*target.Machine{
		target.UsageModel(16),
		target.S390Like(16),
		target.X86Like(16).WithIA64AddImmLimit(),
		target.UsageModel(70),
	}
}

// TestTargetDigestGolden pins the allocation outcome of both preference
// allocators over the nine benchmark profiles on each machine in
// targetDigestMachines, one digest line per (machine, allocator,
// profile). Regenerate with UPDATE_DIGESTS=1 only alongside an
// intentional allocation-behavior change.
func TestTargetDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("target digest sweep is slow")
	}
	var lines []string
	for _, m := range targetDigestMachines() {
		for _, name := range []string{"pref-full", "pref-coalesce"} {
			for _, p := range workload.Benchmarks() {
				d, err := AllocationDigest(workload.Generate(p, m), m, name)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", m.Name, name, p.Name, err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s %s", m.Name, name, p.Name, d))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_DIGESTS") != "" {
		if err := os.WriteFile(targetDigestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", targetDigestGolden)
		return
	}
	want, err := os.ReadFile(targetDigestGolden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_DIGESTS=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("target digests changed:\ngot:\n%swant:\n%s", got, want)
	}
}
