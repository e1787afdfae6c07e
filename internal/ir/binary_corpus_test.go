package ir_test

import (
	"bytes"
	"slices"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/opt"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// Round-trip property over the full synthetic workload: decode∘encode
// is the identity and the encoding is canonical (a fixed point).
func TestBinaryRoundTripWorkload(t *testing.T) {
	m := target.X86Like(8)
	profiles := append(workload.Benchmarks(), workload.Large())
	n := 0
	for _, p := range profiles {
		for _, raw := range workload.Generate(p, m) {
			n++
			// Normalize through one parse: the generator pads NumVirt
			// with never-used registers, which the text form cannot
			// represent, so the wire contract is stated over the
			// parse-normalized function.
			f, err := ir.Parse(raw.String())
			if err != nil {
				t.Fatalf("%s: parse: %v", raw.Name, err)
			}
			f.Name = raw.Name
			enc := ir.EncodeBinary(f)
			g, err := ir.DecodeBinary(enc)
			if err != nil {
				t.Fatalf("%s: DecodeBinary: %v", f.Name, err)
			}
			if g.String() != f.String() {
				t.Fatalf("%s: round trip changed text", f.Name)
			}
			if g.NumVirt != f.NumVirt || g.NumSpillSlots != f.NumSpillSlots {
				t.Fatalf("%s: round trip changed counters", f.Name)
			}
			if !bytes.Equal(ir.EncodeBinary(g), enc) {
				t.Fatalf("%s: encoding is not canonical", f.Name)
			}
			// Text and binary ingestion of the same function must agree
			// on the canonical bytes — the server's cache-key contract.
			reparsed, err := ir.Parse(f.String())
			if err != nil {
				t.Fatalf("%s: reparse: %v", f.Name, err)
			}
			if !bytes.Equal(ir.EncodeBinary(reparsed), enc) {
				t.Fatalf("%s: text and binary paths disagree on canonical bytes", f.Name)
			}
		}
	}
	if n == 0 {
		t.Fatal("workload corpus is empty")
	}
}

// decodeCorpus lists binary encodings of functions of many shapes,
// large and small interleaved: the nine profiles, Large and fuzz seeds
// 1–200, raw and SSA-built.
func decodeCorpus() [][]byte {
	m := target.UsageModel(16)
	var encs [][]byte
	large := workload.Generate(workload.Large(), m)
	var small []*ir.Func
	for _, p := range workload.Benchmarks() {
		small = append(small, workload.Generate(p, m)...)
	}
	for seed := int64(1); seed <= 200; seed++ {
		small = append(small, workload.GenerateRawFunc(workload.Fuzz(), m, seed))
	}
	for i, f := range small {
		if i < len(large) {
			encs = append(encs, ir.EncodeBinary(large[i]))
		}
		encs = append(encs, ir.EncodeBinary(f))
	}
	return encs
}

// DecodeBinaryInto, reusing one destination across functions of
// different shapes, decodes each exactly as DecodeBinary does, and the
// result re-encodes to the same bytes. Every other function is
// rewritten in place between decodes, as the daemon's SSA
// optimization rewrites its decoded input, so the reused storage must
// survive a pass that appends to, replaces and adds slices.
func TestDecodeBinaryIntoMatchesDecodeBinary(t *testing.T) {
	dst := new(ir.Func)
	for i, enc := range decodeCorpus() {
		want, err := ir.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("func %d: DecodeBinary: %v", i, err)
		}
		if err := ir.DecodeBinaryInto(dst, enc); err != nil {
			t.Fatalf("%s: DecodeBinaryInto: %v", want.Name, err)
		}
		if got, w := dst.String(), want.String(); got != w {
			t.Fatalf("%s: DecodeBinaryInto text differs:\n got: %s\nwant: %s", want.Name, got, w)
		}
		if dst.NumVirt != want.NumVirt || dst.NumSpillSlots != want.NumSpillSlots {
			t.Fatalf("%s: counters differ", want.Name)
		}
		for bi, b := range dst.Blocks {
			if !slices.Equal(b.Preds, want.Blocks[bi].Preds) {
				t.Fatalf("%s: b%d preds %v, want %v", want.Name, bi, b.Preds, want.Blocks[bi].Preds)
			}
		}
		if !bytes.Equal(ir.EncodeBinary(dst), enc) {
			t.Fatalf("%s: re-encoding differs", want.Name)
		}
		if i%2 == 1 {
			ssa.Build(dst)
			opt.Optimize(dst)
			ssa.Destruct(dst)
			dst.CompactNops()
			dst.Blocks[0].Instrs[0].Uses = append(dst.Blocks[0].Instrs[0].Uses, ir.Virt(0))
		}
	}
}

// Once its storage has grown, decoding a function into the same
// destination again allocates nothing.
func TestDecodeBinaryIntoAllocatesNothingWarm(t *testing.T) {
	enc := ir.EncodeBinary(workload.Generate(workload.Large(), target.UsageModel(16))[0])
	dst := new(ir.Func)
	if err := ir.DecodeBinaryInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = ir.DecodeBinaryInto(dst, enc) }); n != 0 {
		t.Fatalf("warm DecodeBinaryInto: %v allocations, want 0", n)
	}
}

// Validate allocates nothing on valid functions, whether their
// predecessors come in RecomputePreds's order or out of it.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, enc := range decodeCorpus()[:60] {
		f, err := ir.DecodeBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() { _ = ir.Validate(f) }); n != 0 {
			t.Fatalf("%s: Validate made %v allocations, want 0", f.Name, n)
		}
		for _, b := range f.Blocks {
			slices.Reverse(b.Preds) // φ arguments no longer match; Validate does not check that
		}
		if err := ir.Validate(f); err != nil {
			t.Fatalf("%s: reversed preds: %v", f.Name, err)
		}
		if n := testing.AllocsPerRun(5, func() { _ = ir.Validate(f) }); n != 0 {
			t.Fatalf("%s: Validate with reversed preds made %v allocations, want 0", f.Name, n)
		}
	}
}
