package regalloc_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
	"prefcolor/internal/workload"
)

// monochromeAllocator deliberately colors every web with register 0 —
// an invalid assignment on any program with interference. The oracle
// must catch it even with the driver's own validation switched off.
type monochromeAllocator struct{}

func (monochromeAllocator) Name() string { return "monochrome" }

func (monochromeAllocator) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	g := ctx.Graph
	res := regalloc.NewResult(g)
	for w := 0; w < g.NumWebs(); w++ {
		res.Colors[ig.NodeID(g.NumPhys()+w)] = 0
	}
	return res, nil
}

func TestOracleCatchesMonochromeAllocator(t *testing.T) {
	src := `
func f(v0, v1) {
b0:
  v2 = add v0, v1
  v3 = add v0, v2
  ret v3
}
`
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := target.UsageModel(4)
	_, _, err = regalloc.RunChecked(f, m, monochromeAllocator{}, regalloc.Options{SkipValidate: true})
	if err == nil {
		t.Fatal("oracle accepted an allocation that puts interfering webs in one register")
	}
	if !strings.Contains(err.Error(), "oracle:") {
		t.Fatalf("failure did not come from the oracle: %v", err)
	}
}

// shiftedAllocator colors webs validly with respect to interference
// but ignores dedicated physical registers is hard to fabricate here;
// instead pin the positive path: a correct allocator passes the oracle
// and produces identical output through Run and RunChecked.
func TestRunCheckedMatchesRun(t *testing.T) {
	m := target.UsageModel(6)
	raw := workload.GenerateRawFunc(fuzzProfile, m, 7)
	plain, pstats, err := regalloc.Run(raw, m, allocatorByName(t, "chaitin"), regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checked, cstats, err := regalloc.RunChecked(raw, m, allocatorByName(t, "chaitin"), regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != checked.String() {
		t.Error("RunChecked changed the allocation output")
	}
	if pstats.SpillInstrs() != cstats.SpillInstrs() || pstats.MovesEliminated != cstats.MovesEliminated {
		t.Error("RunChecked changed the allocation statistics")
	}
}

// irBlock matches a backquoted string literal holding textual IR.
var irBlock = regexp.MustCompile("(?s)`([^`]*func [^`]*)`")

// exampleMachine mirrors each example's machine choice closely enough
// for the oracle (the exact register count is not load-bearing).
func exampleMachine(dir string) *target.Machine {
	switch dir {
	case "limited":
		return target.X86Like(16)
	case "ssacopies":
		return target.UsageModel(8)
	default:
		return target.UsageModel(16)
	}
}

// TestOracleOnExamples runs every IR program embedded in examples/
// through the oracle under the main allocator configurations. The
// example sources are the repository's showcase inputs, so they stay
// allocation-valid by construction — this test keeps it that way.
func TestOracleOnExamples(t *testing.T) {
	dirs, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	programs := 0
	for _, path := range dirs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(path))
		m := exampleMachine(dir)
		for bi, block := range irBlock.FindAllSubmatch(src, -1) {
			f, err := ir.Parse(string(block[1]))
			if err != nil {
				t.Fatalf("%s block %d: embedded IR no longer parses: %v", dir, bi, err)
			}
			programs++
			if dir == "ssacopies" {
				// The example allocates after SSA round-tripping; the
				// copies that destruction inserts are the interesting
				// workload, so mirror it.
				ssa.Build(f)
				ssa.Destruct(f)
				f.CompactNops()
			}
			for _, name := range []string{"chaitin", "pref-coalesce", "pref-full"} {
				if _, _, err := regalloc.RunChecked(f.Clone(), m, allocatorByName(t, name), regalloc.Options{}); err != nil {
					t.Errorf("%s block %d under %s: %v", dir, bi, name, err)
				}
			}
		}
	}
	if programs < 4 {
		t.Fatalf("extracted only %d embedded IR programs; extraction regexp likely broken", programs)
	}
}

// TestTelemetryIsObservationOnly pins the core telemetry contract on
// the single-function driver: collection populates Stats.Telemetry and
// a trace stream without changing one instruction of the output.
func TestTelemetryIsObservationOnly(t *testing.T) {
	m := target.UsageModel(6)
	raw := workload.GenerateRawFunc(fuzzProfile, m, 11)

	quiet, _, err := regalloc.Run(raw, m, allocatorByName(t, "pref-full"), regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	loud, stats, err := regalloc.Run(raw, m, allocatorByName(t, "pref-full"), regalloc.Options{
		CollectTelemetry: true,
		TraceWriter:      &trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.String() != loud.String() {
		t.Error("telemetry perturbed the allocation")
	}
	snap := stats.Telemetry
	if snap == nil {
		t.Fatal("CollectTelemetry set but Stats.Telemetry is nil")
	}
	if snap.Funcs != 1 || snap.Selections == 0 {
		t.Errorf("snapshot looks empty: funcs=%d selections=%d", snap.Funcs, snap.Selections)
	}
	total := int64(0)
	for c := telemetry.PrefClass(0); c < telemetry.NumPrefClasses; c++ {
		total += snap.PrefTotal(c)
	}
	if total == 0 {
		t.Error("no preference outcomes counted on a preference-bearing program")
	}
	if trace.Len() == 0 || snap.TraceEvents == 0 {
		t.Errorf("trace stream empty: %d bytes, %d events", trace.Len(), snap.TraceEvents)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("{")) || !bytes.HasSuffix(line, []byte("}")) {
			t.Fatalf("trace line %d is not a JSON object: %q", i, line)
		}
	}
}
