package metamorph

import (
	"bytes"
	"math/rand"
	"testing"

	"prefcolor/internal/ir"
)

// The binary wire format must be the identity over everything the
// metamorphic harness can produce: every pinned corpus reproducer and
// every transform of it round-trips through EncodeBinary/DecodeBinary
// unchanged, with canonical (re-encodable, byte-identical) output.
// DecodeBinaryInto, reusing one destination across all of them,
// decodes each to the same function.
func TestBinaryRoundTripTransformCorpus(t *testing.T) {
	cases, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	machines := Machines()
	dst := new(ir.Func)
	check := func(name string, f *ir.Func) {
		t.Helper()
		enc := ir.EncodeBinary(f)
		g, err := ir.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("%s: DecodeBinary: %v", name, err)
		}
		if g.String() != f.String() {
			t.Fatalf("%s: round trip changed text:\n got: %s\nwant: %s", name, g.String(), f.String())
		}
		if !bytes.Equal(ir.EncodeBinary(g), enc) {
			t.Fatalf("%s: encoding not canonical", name)
		}
		if err := ir.DecodeBinaryInto(dst, enc); err != nil {
			t.Fatalf("%s: DecodeBinaryInto: %v", name, err)
		}
		if dst.String() != f.String() || !bytes.Equal(ir.EncodeBinary(dst), enc) {
			t.Fatalf("%s: DecodeBinaryInto changed the function:\n got: %s\nwant: %s", name, dst.String(), f.String())
		}
	}
	for _, c := range cases {
		check(c.File, c.F)
		m := machines[0]
		for _, mm := range machines {
			if mm.Name == c.Machine {
				m = mm
			}
		}
		for _, tr := range Transforms() {
			for seed := int64(1); seed <= 3; seed++ {
				tf, _ := tr.Apply(c.F, m, rand.New(rand.NewSource(seed)))
				check(c.File+"/"+tr.Name, tf)
			}
		}
	}
}
