package ir

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestRegEncoding(t *testing.T) {
	if NoReg.Valid() {
		t.Errorf("NoReg.Valid() = true")
	}
	r := Phys(3)
	if !r.IsPhys() || r.IsVirt() || r.PhysNum() != 3 {
		t.Errorf("Phys(3) misbehaves: %v", r)
	}
	v := Virt(7)
	if !v.IsVirt() || v.IsPhys() || v.VirtNum() != 7 {
		t.Errorf("Virt(7) misbehaves: %v", v)
	}
	if got := r.String(); got != "r3" {
		t.Errorf("Phys(3).String() = %q, want r3", got)
	}
	if got := v.String(); got != "v7" {
		t.Errorf("Virt(7).String() = %q, want v7", got)
	}
	if got := NoReg.String(); got != "<none>" {
		t.Errorf("NoReg.String() = %q", got)
	}
}

func TestRegEncodingPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("Phys(-1)", func() { Phys(-1) })
	mustPanic("Phys(255)", func() { Phys(255) })
	mustPanic("Virt(-1)", func() { Virt(-1) })
	mustPanic("NoReg.PhysNum", func() { NoReg.PhysNum() })
	mustPanic("phys VirtNum", func() { Phys(0).VirtNum() })
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		Move: "move", Load: "load", Store: "store", Call: "call",
		Branch: "branch", Phi: "phi", SpillLoad: "spillload",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
		if opByName[want] != op {
			t.Errorf("opByName[%q] = %v, want %v", want, opByName[want], op)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	for _, op := range []Op{Ret, Jump, Branch} {
		if !op.IsTerminator() {
			t.Errorf("%v.IsTerminator() = false", op)
		}
	}
	for _, op := range []Op{Move, Add, Call, Phi} {
		if op.IsTerminator() {
			t.Errorf("%v.IsTerminator() = true", op)
		}
	}
	if !Add.IsArith() || !Neg.IsArith() || Move.IsArith() || Call.IsArith() {
		t.Error("IsArith misclassifies")
	}
	if !SpillLoad.IsSpill() || !SpillStore.IsSpill() || Load.IsSpill() {
		t.Error("IsSpill misclassifies")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{MakeMove(Virt(1), Virt(0)), "v1 = move v0"},
		{MakeLoadImm(Virt(2), 42), "v2 = loadimm 42"},
		{MakeLoad(Virt(1), Virt(0), 8), "v1 = load v0, 8"},
		{MakeStore(Virt(1), Virt(0), 4), "store v1, v0, 4"},
		{MakeBin(Add, Virt(2), Virt(0), Virt(1)), "v2 = add v0, v1"},
		{MakeCall("f", Virt(3), Phys(0), Phys(1)), "v3 = call @f r0, r1"},
		{MakeCall("g", NoReg), "call @g"},
		{MakeRet(Virt(0)), "ret v0"},
		{MakeRet(NoReg), "ret"},
		{MakePhi(Virt(2), Virt(0), Virt(1)), "v2 = phi v0, v1"},
		{Instr{Op: SpillLoad, Defs: []Reg{Virt(1)}, Imm: 3}, "v1 = spillload 3"},
		{Instr{Op: SpillStore, Uses: []Reg{Virt(1)}, Imm: 3}, "spillstore v1, 3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Instr.String() = %q, want %q", got, c.want)
		}
	}
}

func TestBuilderLoop(t *testing.T) {
	b := NewBuilder("loop")
	n := b.Param()
	i := b.Reg()
	sum := b.Reg()
	b.LoadImm(i, 0).LoadImm(sum, 0)
	head, body, exit := b.Block(), b.Block(), b.Block()
	b.Jump(head)
	b.SetBlock(head)
	cond := b.Reg()
	b.Bin(Cmp, cond, i, n)
	b.Branch(cond, body, exit)
	b.SetBlock(body)
	one := b.Reg()
	b.LoadImm(one, 1)
	b.Bin(Add, sum, sum, i)
	b.Bin(Add, i, i, one)
	b.Jump(head)
	b.SetBlock(exit)
	b.Ret(sum)
	f := b.Finish()

	if err := Validate(f); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	res, err := Interp(f, map[Reg]int64{n: 5}, InterpOptions{})
	if err != nil {
		t.Fatalf("Interp: %v", err)
	}
	if !res.HasRet || res.Ret != 0+1+2+3+4 {
		t.Errorf("sum(5) = %d (hasRet=%v), want 10", res.Ret, res.HasRet)
	}
}

func makeDiamond(t *testing.T) *Func {
	t.Helper()
	b := NewBuilder("diamond")
	x := b.Param()
	t1, t2, join := b.Block(), b.Block(), b.Block()
	b.Branch(x, t1, t2)
	b.SetBlock(t1)
	a := b.Reg()
	b.LoadImm(a, 10)
	b.Jump(join)
	b.SetBlock(t2)
	c := b.Reg()
	b.LoadImm(c, 20)
	b.Jump(join)
	b.SetBlock(join)
	d := b.Reg()
	b.Phi(d, a, c)
	b.Ret(d)
	return b.Finish()
}

func TestInterpPhi(t *testing.T) {
	f := makeDiamond(t)
	if err := Validate(f); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for in, want := range map[int64]int64{1: 10, 0: 20} {
		res, err := Interp(f, map[Reg]int64{f.Params[0]: in}, InterpOptions{})
		if err != nil {
			t.Fatalf("Interp(%d): %v", in, err)
		}
		if res.Ret != want {
			t.Errorf("diamond(%d) = %d, want %d", in, res.Ret, want)
		}
	}
}

func TestInterpCallClobbers(t *testing.T) {
	// Keep a value in r5 across a call that clobbers r5: result must
	// differ from the unclobbered version.
	src := `
func f(v0) {
b0:
  r5 = move v0
  call @g v0
  v1 = move r5
  ret v1
}
`
	f := MustParse(src)
	init := map[Reg]int64{f.Params[0]: 7}
	clob, err := Interp(f, init, InterpOptions{CallClobbers: []Reg{Phys(5)}})
	if err != nil {
		t.Fatalf("Interp: %v", err)
	}
	clean, err := Interp(f, init, InterpOptions{})
	if err != nil {
		t.Fatalf("Interp: %v", err)
	}
	if clean.Ret != 7 {
		t.Errorf("unclobbered ret = %d, want 7", clean.Ret)
	}
	if clob.Ret == 7 {
		t.Errorf("clobbered ret = 7; call clobber had no effect")
	}
}

func TestInterpSpillSlots(t *testing.T) {
	src := `
func f(v0) {
b0:
  spillstore v0, 2
  v1 = loadimm 0
  v2 = spillload 2
  ret v2
}
`
	f := MustParse(src)
	res, err := Interp(f, map[Reg]int64{f.Params[0]: 99}, InterpOptions{})
	if err != nil {
		t.Fatalf("Interp: %v", err)
	}
	if res.Ret != 99 {
		t.Errorf("ret = %d, want 99", res.Ret)
	}
}

func TestInterpStepBudget(t *testing.T) {
	src := `
func f() {
b0:
  jump b0
}
`
	f := MustParse(src)
	_, err := Interp(f, nil, InterpOptions{MaxSteps: 100})
	if err == nil {
		t.Fatal("expected step-budget error for infinite loop")
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := makeDiamond(t)
	text := f.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse of printed function failed: %v\ntext:\n%s", err, text)
	}
	if g.String() != text {
		t.Errorf("round trip mismatch:\nfirst:\n%s\nsecond:\n%s", text, g.String())
	}
	// Behavior must match too.
	for _, in := range []int64{0, 1} {
		a, err := Interp(f, map[Reg]int64{f.Params[0]: in}, InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Interp(g, map[Reg]int64{g.Params[0]: in}, InterpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Ret != b.Ret {
			t.Errorf("input %d: ret %d vs %d", in, a.Ret, b.Ret)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                  // no header
		"func f() {",                        // no close
		"func f() {\nb0:\n  bogus v0\n}",    // unknown op
		"func f() {\n  v0 = move v1\n}",     // instr outside block
		"func f() {\nb0:\n  jump b0, b1\n}", // jump arity
		"func f() {\nb0:\n  v0 = load v1\n}",
		"func f(q0) {\nb0:\n  ret\n}", // bad register
		"func f() {\nb0:\n  v0 = move r700\n  ret v0\n}",       // physical register past the encoding
		"func f() {\nb0:\n  v2147483647 = loadimm 1\n  ret\n}", // virtual register past the encoding
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestValidateCatches(t *testing.T) {
	// Terminator not at end.
	f := NewFunc("bad")
	b := f.NewBlock()
	b.Instrs = []Instr{MakeRet(NoReg), {Op: Nop}}
	if err := Validate(f); err == nil {
		t.Error("terminator mid-block not caught")
	}

	// φ arity mismatch.
	g := makeDiamond(t)
	join := g.Blocks[3]
	join.Instrs[0].Uses = join.Instrs[0].Uses[:1]
	if err := Validate(g); err == nil {
		t.Error("φ arity mismatch not caught")
	}

	// Out-of-range virtual register.
	h := NewFunc("oor")
	hb := h.NewBlock()
	hb.Instrs = []Instr{MakeMove(Virt(3), Virt(4)), MakeRet(NoReg)}
	if err := Validate(h); err == nil {
		t.Error("out-of-range vreg not caught")
	}

	// Out-of-range parameter: the renumberer indexes its tables by it.
	pf := NewFunc("oorparam")
	pf.NewBlock().Instrs = []Instr{MakeRet(NoReg)}
	pf.Params = []Reg{Virt(2)}
	pf.NumVirt = 2
	if err := Validate(pf); err == nil {
		t.Error("out-of-range parameter not caught")
	}

	// Inconsistent preds.
	d := makeDiamond(t)
	d.Blocks[3].Preds = nil
	if err := Validate(d); err == nil {
		t.Error("pred/succ inconsistency not caught")
	}

	// Branch with one successor.
	e := makeDiamond(t)
	e.Blocks[0].Succs = e.Blocks[0].Succs[:1]
	e.RecomputePreds()
	// Note: φ in join now has 2 args but 1 pred, also invalid; either way
	// Validate must fail.
	if err := Validate(e); err == nil {
		t.Error("branch with one successor not caught")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := makeDiamond(t)
	g := f.Clone()
	g.Blocks[0].Instrs[0].Uses[0] = Virt(90)
	g.Blocks[0].Succs[0] = 2
	if f.Blocks[0].Instrs[0].Uses[0] == Virt(90) {
		t.Error("Clone shares instruction operand slices")
	}
	if f.Blocks[0].Succs[0] == 2 {
		t.Error("Clone shares Succs")
	}
}

// TestCloneOperandsDoNotAlias checks that the clone's shared backing
// arrays are cut cap-limited: appending to or overwriting one cloned
// instruction's operands, one block's instructions or one block's
// edges changes neither the original nor any neighbour in the clone.
func TestCloneOperandsDoNotAlias(t *testing.T) {
	f := makeDiamond(t)
	want := f.String()
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			g := f.Clone()
			in := &g.Blocks[bi].Instrs[i]
			for j := range in.Uses {
				in.Uses[j] = Virt(97)
			}
			for j := range in.Defs {
				in.Defs[j] = Virt(96)
			}
			in.Uses = append(in.Uses, Virt(99))
			in.Defs = append(in.Defs, Virt(98))
			g.Blocks[bi].Instrs = append(g.Blocks[bi].Instrs, MakeMove(Virt(95), Virt(94)))
			g.Blocks[bi].Succs = append(g.Blocks[bi].Succs, 0)
			g.Blocks[bi].Preds = append(g.Blocks[bi].Preds, 0)
			if got := f.String(); got != want {
				t.Fatalf("b%d[%d]: editing the clone changed the original:\n%s", bi, i, got)
			}
			for bj, ob := range f.Blocks {
				cb := g.Blocks[bj]
				if bj != bi && (!slices.Equal(cb.Succs, ob.Succs) || !slices.Equal(cb.Preds, ob.Preds) || len(cb.Instrs) != len(ob.Instrs)) {
					t.Fatalf("b%d[%d]: editing the clone changed block b%d's edges or length", bi, i, bj)
				}
				for j := range ob.Instrs {
					if bj == bi && j == i {
						continue
					}
					if got, exp := cb.Instrs[j].String(), ob.Instrs[j].String(); got != exp {
						t.Fatalf("b%d[%d]: neighbour b%d[%d] became %q, want %q", bi, i, bj, j, got, exp)
					}
				}
			}
		}
	}
}

func TestCompactNops(t *testing.T) {
	f := NewFunc("n")
	b := f.NewBlock()
	b.Instrs = []Instr{{Op: Nop}, MakeRet(NoReg), {}}
	b.Instrs = b.Instrs[:2]
	f.CompactNops()
	if len(b.Instrs) != 1 || b.Instrs[0].Op != Ret {
		t.Errorf("CompactNops left %v", b.Instrs)
	}
}

func TestCountHelpers(t *testing.T) {
	f := makeDiamond(t)
	if got := f.CountOp(LoadImm); got != 2 {
		t.Errorf("CountOp(LoadImm) = %d, want 2", got)
	}
	if got := f.NumInstrs(); got != 7 {
		t.Errorf("NumInstrs = %d, want 7", got)
	}
}

func TestDefaultMemDeterministic(t *testing.T) {
	if defaultMem(100) != defaultMem(100) {
		t.Error("defaultMem not deterministic")
	}
	if defaultMem(100) == defaultMem(101) {
		t.Error("defaultMem(100) == defaultMem(101); too degenerate")
	}
}

func TestHashCallSensitivity(t *testing.T) {
	regs := map[Reg]int64{Virt(0): 1, Virt(1): 2}
	a := hashCall("f", regs, []Reg{Virt(0)})
	b := hashCall("g", regs, []Reg{Virt(0)})
	c := hashCall("f", regs, []Reg{Virt(1)})
	if a == b || a == c {
		t.Error("hashCall insensitive to sym or args")
	}
}

func TestStringContainsBlocksAndSuccs(t *testing.T) {
	f := makeDiamond(t)
	s := f.String()
	for _, want := range []string{"func diamond(v0)", "b0:", "branch v0, b1, b2", "jump b3", "v3 = phi v1, v2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestInterpArithOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{Add, 7, 5, 12},
		{Sub, 7, 5, 2},
		{Mul, 7, 5, 35},
		{Div, 7, 5, 1},
		{Div, 7, 0, 0}, // division by zero yields zero by definition
		{And, 6, 3, 2},
		{Or, 6, 3, 7},
		{Xor, 6, 3, 5},
		{Shl, 3, 2, 12},
		{Shr, 12, 2, 3},
		{Shl, 1, 64, 1}, // shift counts mask to 63
		{Shr, -8, 1, int64(uint64(0xfffffffffffffff8) >> 1)},
		{Cmp, 3, 5, 1},
		{Cmp, 5, 3, 0},
		{Cmp, 4, 4, 0},
	}
	for _, c := range cases {
		f := NewFunc("t")
		b := f.NewBlock()
		f.NumVirt = 3
		b.Instrs = []Instr{
			MakeBin(c.op, Virt(2), Virt(0), Virt(1)),
			MakeRet(Virt(2)),
		}
		res, err := Interp(f, map[Reg]int64{Virt(0): c.a, Virt(1): c.b}, InterpOptions{})
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if res.Ret != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, res.Ret, c.want)
		}
	}
}

func TestInterpUnaryAndImmOps(t *testing.T) {
	f := MustParse(`
func f(v0) {
b0:
  v1 = neg v0
  v2 = addimm v1, 10
  ret v2
}
`)
	res, err := Interp(f, map[Reg]int64{Virt(0): 4}, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 6 {
		t.Errorf("neg/addimm chain = %d, want 6", res.Ret)
	}
}

func TestInterpStoreRecords(t *testing.T) {
	f := MustParse(`
func f(v0) {
b0:
  v1 = loadimm 9
  store v1, v0, 4
  store v0, v0, 8
  ret v1
}
`)
	res, err := Interp(f, map[Reg]int64{Virt(0): 100}, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stores) != 2 {
		t.Fatalf("stores = %d, want 2", len(res.Stores))
	}
	if res.Stores[0] != (StoreRecord{Addr: 104, Value: 9}) {
		t.Errorf("store 0 = %+v", res.Stores[0])
	}
	if res.Stores[1] != (StoreRecord{Addr: 108, Value: 100}) {
		t.Errorf("store 1 = %+v", res.Stores[1])
	}
}

func TestInterpLoadAfterStore(t *testing.T) {
	f := MustParse(`
func f(v0) {
b0:
  v1 = loadimm 55
  store v1, v0, 0
  v2 = load v0, 0
  ret v2
}
`)
	res, err := Interp(f, map[Reg]int64{Virt(0): 32}, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 {
		t.Errorf("load-after-store = %d, want 55", res.Ret)
	}
}

func TestParseAddImmRoundTrip(t *testing.T) {
	src := `func f(v0) {
b0:
  v1 = addimm v0, -3
  ret v1
}
`
	f := MustParse(src)
	if got := f.String(); got != src {
		t.Errorf("round trip:\n%q\nvs\n%q", got, src)
	}
}

func TestInterpRetVoid(t *testing.T) {
	f := MustParse(`
func f() {
b0:
  ret
}
`)
	res, err := Interp(f, nil, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasRet {
		t.Error("void return reported a value")
	}
}

// edgesConsistent, Validate's allocation-free edge check, agrees with
// the sorted-multiset comparison it replaced on random control-flow
// graphs whose predecessor lists are shuffled, duplicated, dropped,
// retargeted or pushed out of range, including lists longer than its
// stack scratch.
func TestEdgesConsistentMatchesMultisets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(6)
		if iter%100 == 0 {
			n = 2*predScratch + 10
		}
		f := NewFunc("g")
		for i := 0; i < n; i++ {
			b := f.NewBlock()
			switch rng.Intn(3) {
			case 1:
				b.Succs = []BlockID{BlockID(rng.Intn(n))}
			case 2:
				b.Succs = []BlockID{BlockID(rng.Intn(n)), BlockID(rng.Intn(n))}
			}
		}
		if iter%100 == 0 {
			for _, b := range f.Blocks {
				b.Succs = []BlockID{0}
			}
		}
		f.RecomputePreds()
		for _, b := range f.Blocks {
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(b.Preds), func(i, j int) { b.Preds[i], b.Preds[j] = b.Preds[j], b.Preds[i] })
			}
		}
		b := f.Blocks[rng.Intn(n)]
		switch k := len(b.Preds); rng.Intn(6) {
		case 1:
			if k > 0 {
				b.Preds = append(b.Preds, b.Preds[rng.Intn(k)])
			}
		case 2:
			if k > 0 {
				b.Preds = slices.Delete(b.Preds, 0, 1)
			}
		case 3:
			if k > 0 {
				b.Preds[rng.Intn(k)] = BlockID(rng.Intn(n))
			}
		case 4:
			b.Preds = append(b.Preds, BlockID(n+rng.Intn(2)))
		case 5:
			if k > 0 {
				b.Preds[rng.Intn(k)] = -1
			}
		}
		if got, want := edgesConsistent(f), edgeError(f) == nil; got != want {
			t.Fatalf("iter %d: edgesConsistent %v, multiset comparison %v", iter, got, want)
		}
	}
}
