package regalloc_test

import (
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/regalloc/chaitin"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// rematSrc keeps a constant live across a high-pressure region on a
// tiny machine: the constant is the cheapest spill victim, and with
// rematerialization on, no spill slot should be used for it.
const rematSrc = `
func f(v0) {
b0:
  v1 = loadimm 7
  v2 = add v0, v0
  v3 = add v0, v2
  v4 = add v0, v3
  v5 = add v2, v3
  v6 = add v5, v4
  v7 = add v6, v0
  v8 = add v7, v2
  v9 = add v8, v1
  ret v9
}
`

func TestRematerializationAvoidsSpillTraffic(t *testing.T) {
	f := ir.MustParse(rematSrc)
	m := target.UsageModel(4)
	plain, sPlain, err := regalloc.Run(f, m, chaitin.New(), regalloc.Options{})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	remat, sRemat, err := regalloc.Run(f, m, chaitin.New(), regalloc.Options{Rematerialize: true})
	if err != nil {
		t.Fatalf("remat: %v", err)
	}
	if sPlain.SpillInstrs() == 0 {
		t.Skip("machine too large to force a spill; test needs pressure")
	}
	if sRemat.Remats == 0 {
		t.Fatalf("no rematerialization happened: %+v", sRemat)
	}
	if sRemat.SpillInstrs() >= sPlain.SpillInstrs() {
		t.Errorf("remat spill instrs %d, plain %d; expected a reduction",
			sRemat.SpillInstrs(), sPlain.SpillInstrs())
	}
	// Both must compute the same value.
	for _, in := range []int64{0, 5, -3} {
		a, err := ir.Interp(plain, map[ir.Reg]int64{plain.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ir.Interp(remat, map[ir.Reg]int64{remat.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ret != b.Ret {
			t.Errorf("input %d: %d vs %d", in, a.Ret, b.Ret)
		}
	}
}

func TestRematerializationSkipsNonConstants(t *testing.T) {
	// v1 is defined by an add: not rematerializable; spilling must
	// fall back to slots, and results stay correct.
	src := `
func f(v0) {
b0:
  v1 = add v0, v0
  v2 = add v0, v1
  v3 = add v0, v2
  v4 = add v0, v3
  v5 = add v2, v3
  v6 = add v5, v4
  v7 = add v6, v0
  v8 = add v7, v2
  v9 = add v8, v1
  ret v9
}
`
	f := ir.MustParse(src)
	m := target.UsageModel(4)
	out, stats, err := regalloc.Run(f, m, chaitin.New(), regalloc.Options{Rematerialize: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Remats != 0 {
		t.Errorf("rematerialized a non-constant web: %+v", stats)
	}
	a, _ := ir.Interp(f, map[ir.Reg]int64{f.Params[0]: 4}, ir.InterpOptions{})
	b, _ := ir.Interp(out, map[ir.Reg]int64{out.Params[0]: 4}, ir.InterpOptions{})
	if a.Ret != b.Ret {
		t.Errorf("semantics changed: %d vs %d", a.Ret, b.Ret)
	}
}

func TestRematerializationMixedDefsNotRemat(t *testing.T) {
	// A web with one loadimm def and one add def reaching a common
	// use must not be rematerialized.
	src := `
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  v1 = loadimm 7
  jump b3
b2:
  v1 = add v0, v0
  jump b3
b3:
  v2 = add v1, v1
  v3 = add v0, v0
  v4 = add v0, v3
  v5 = add v3, v4
  v6 = add v5, v2
  ret v6
}
`
	f := ir.MustParse(src)
	m := target.UsageModel(4)
	out, _, err := regalloc.Run(f, m, chaitin.New(), regalloc.Options{Rematerialize: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, in := range []int64{0, 1, 9} {
		a, _ := ir.Interp(f, map[ir.Reg]int64{f.Params[0]: in}, ir.InterpOptions{})
		b, _ := ir.Interp(out, map[ir.Reg]int64{out.Params[0]: in}, ir.InterpOptions{})
		if a.Ret != b.Ret {
			t.Errorf("input %d: %d vs %d", in, a.Ret, b.Ret)
		}
	}
}

// forceSpill spills one chosen web on the first round, then behaves
// like its inner allocator — a deterministic way to compare spill-code
// strategies on the same victim.
type forceSpill struct {
	inner regalloc.Allocator
	web   int
	done  bool
}

func (fs *forceSpill) Name() string { return "force-spill" }

func (fs *forceSpill) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	if !fs.done {
		fs.done = true
		res := regalloc.NewResult(ctx.Graph)
		res.Spilled = append(res.Spilled, ctx.Graph.NodeOf(ir.Virt(fs.web)))
		return res, nil
	}
	return fs.inner.Allocate(ctx)
}

// TestBlockLocalSpillsReduceLoads: the victim is defined once and used
// three times in a later block. Spill-everywhere pays one store plus
// three loads; block-local spilling pays one store plus one load.
func TestBlockLocalSpillsReduceLoads(t *testing.T) {
	src := `
func f(v0) {
b0:
  v1 = add v0, v0
  jump b1
b1:
  v2 = add v1, v0
  v3 = add v2, v1
  v4 = add v3, v1
  ret v4
}
`
	m := target.UsageModel(8)
	// v1 is web 1 after renumbering (v0 the parameter is web 0).
	f1 := ir.MustParse(src)
	plain, sPlain, err := regalloc.Run(f1, m, &forceSpill{inner: chaitin.New(), web: 1}, regalloc.Options{})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	f2 := ir.MustParse(src)
	local, sLocal, err := regalloc.Run(f2, m, &forceSpill{inner: chaitin.New(), web: 1}, regalloc.Options{BlockLocalSpills: true})
	if err != nil {
		t.Fatalf("block-local: %v", err)
	}
	if sPlain.SpillInstrs() != 4 {
		t.Errorf("spill-everywhere instrs = %d, want 4 (1 store + 3 loads)", sPlain.SpillInstrs())
	}
	if sLocal.SpillInstrs() != 2 {
		t.Errorf("block-local instrs = %d, want 2 (1 store + 1 load)\n%s", sLocal.SpillInstrs(), local)
	}
	for _, in := range []int64{0, 3, -5} {
		a, err := ir.Interp(plain, map[ir.Reg]int64{plain.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ir.Interp(local, map[ir.Reg]int64{local.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ret != b.Ret {
			t.Errorf("input %d: %d vs %d", in, a.Ret, b.Ret)
		}
	}
}

func TestBlockLocalSpillsAcrossBlocks(t *testing.T) {
	// The spilled value crosses blocks: each block reloads from the
	// slot, and a written block stores back before its terminator.
	src := `
func f(v0) {
b0:
  v1 = add v0, v0
  v2 = add v0, v1
  v3 = add v0, v2
  v4 = add v0, v3
  v5 = add v2, v3
  branch v0, b1, b2
b1:
  v1 = add v1, v4
  jump b2
b2:
  v6 = add v1, v5
  v7 = add v6, v4
  v8 = add v7, v2
  ret v8
}
`
	f := ir.MustParse(src)
	m := target.UsageModel(4)
	out, _, err := regalloc.Run(f, m, chaitin.New(), regalloc.Options{BlockLocalSpills: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, in := range []int64{0, 1, 7} {
		a, err := ir.Interp(f, map[ir.Reg]int64{f.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ir.Interp(out, map[ir.Reg]int64{out.Params[0]: in}, ir.InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ret != b.Ret {
			t.Errorf("input %d: %d vs %d\n%s", in, a.Ret, b.Ret, out)
		}
	}
}

// TestBlockLocalSpillsFuzz drives every allocator with block-local
// spilling over random programs on a tiny machine.
func TestBlockLocalSpillsFuzz(t *testing.T) {
	m := target.UsageModel(4)
	opts := ir.InterpOptions{CallClobbers: m.CallClobbers()}
	for seed := int64(1); seed <= 20; seed++ {
		raw := workload.GenerateRawFunc(fuzzProfile, m, seed)
		out, _, err := regalloc.Run(raw, m, chaitin.New(), regalloc.Options{BlockLocalSpills: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		init, outInit := map[ir.Reg]int64{}, map[ir.Reg]int64{}
		for i, p := range raw.Params {
			init[p] = seed + int64(i)
			outInit[out.Params[i]] = seed + int64(i)
		}
		a, err := ir.Interp(raw, init, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := ir.Interp(out, outInit, opts)
		if err != nil {
			t.Fatalf("seed %d: interp out: %v", seed, err)
		}
		if a.HasRet != b.HasRet || a.Ret != b.Ret || len(a.Stores) != len(b.Stores) {
			t.Errorf("seed %d: behavior changed", seed)
		}
	}
}
