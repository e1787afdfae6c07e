package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"
)

// binTestSrc exercises every wire feature: params, an immediate op, a
// call with a symbol (used twice, so interning matters), branch/jump
// control flow, and a φ.
const binTestSrc = `func wire(v0, v1) {
b0:
  v2 = load v0, 8
  v3 = add v2, v1
  branch v3, b1, b2
b1:
  v4 = call @helper v3
  v5 = call @helper v4
  jump b2
b2:
  v6 = phi v3, v5
  ret v6
}
`

func TestBinaryRoundTrip(t *testing.T) {
	f := MustParse(binTestSrc)
	enc := EncodeBinary(f)
	if !IsBinary(enc) {
		t.Fatalf("IsBinary(EncodeBinary(f)) = false")
	}
	g, err := DecodeBinary(enc)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got, want := g.String(), f.String(); got != want {
		t.Errorf("round trip changed text:\n got: %s\nwant: %s", got, want)
	}
	if g.NumVirt != f.NumVirt || g.NumSpillSlots != f.NumSpillSlots {
		t.Errorf("round trip changed counters: NumVirt %d/%d NumSpillSlots %d/%d",
			g.NumVirt, f.NumVirt, g.NumSpillSlots, f.NumSpillSlots)
	}
	// Canonical: re-encoding the decoded function reproduces the bytes.
	if !bytes.Equal(EncodeBinary(g), enc) {
		t.Errorf("EncodeBinary(DecodeBinary(enc)) != enc")
	}
}

// TestBinaryGolden pins the exact wire bytes of a small function. A
// mismatch means the format changed: bump BinaryVersion and regenerate
// (the failure message prints the new bytes).
func TestBinaryGolden(t *testing.T) {
	f := MustParse(`func g(v0) {
b0:
  v1 = addimm v0, -3
  v2 = call @f v1
  ret v2
}
`)
	const want = "50474952" + // "PGIR"
		"01" + // version 1
		"0167" + // name "g"
		"03" + "00" + // numVirt=3 numSpill=0
		"0102" + // params: 1 × v0 (sreg 2·0+2)
		"010166" + // symbols: 1 × "f"
		"01" + // 1 block
		"00" + "03" + // 0 succs, 3 instrs
		"1201010401" + "02" + "05" + // v1 = addimm v0, -3: op flags=imm defs=[v1] uses=[v0] zigzag(-3)=5
		"1302010601" + "04" + "00" + // v2 = call @f v1: flags=sym, sym index 0
		"1400000106" // ret v2: op flags=0 defs=[] uses=[v2]
	got := hex.EncodeToString(EncodeBinary(f))
	if got != want {
		t.Errorf("golden encoding changed:\n got %s\nwant %s", got, want)
	}
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	enc := EncodeBinary(MustParse(binTestSrc))

	// Every truncation must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeBinary(enc[:n]); err == nil {
			t.Errorf("DecodeBinary(enc[:%d]) succeeded on truncated input", n)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeBinary(append(append([]byte{}, enc...), 0)); err == nil {
		t.Errorf("DecodeBinary accepted trailing bytes")
	}
	// Every single-byte flip either errors or yields a function that
	// still validates (flips in name/symbol bytes are legal).
	for i := range enc {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x2a
		f, err := DecodeBinary(mut)
		if err == nil {
			if err := Validate(f); err != nil {
				t.Errorf("flip at %d: decode succeeded but Validate fails: %v", i, err)
			}
		}
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XGIR\x01")},
		{"future version", []byte("PGIR\x63")},
		{"huge count", append(append([]byte{}, enc[:6]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
	}
	for _, tc := range cases {
		if _, err := DecodeBinary(tc.data); err == nil {
			t.Errorf("%s: DecodeBinary succeeded", tc.name)
		}
	}
}

func FuzzDecodeBinary(f *testing.F) {
	f.Add(EncodeBinary(MustParse(binTestSrc)))
	f.Add(EncodeBinary(MustParse("func empty() {\nb0:\n  ret\n}\n")))
	f.Add([]byte("PGIR\x01"))
	f.Add([]byte("PGIR\x01\x00\x05\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data) // must never panic
		if err != nil {
			return
		}
		// Anything accepted must be canonical and validated.
		if err := Validate(g); err != nil {
			t.Fatalf("accepted function fails Validate: %v", err)
		}
		re, err := DecodeBinary(EncodeBinary(g))
		if err != nil {
			t.Fatalf("re-decode of accepted function: %v", err)
		}
		if re.String() != g.String() {
			t.Fatalf("re-decode changed function")
		}
	})
}

func TestStreamDecoder(t *testing.T) {
	fs := []*Func{
		MustParse(binTestSrc),
		MustParse("func second() {\nb0:\n  v0 = loadimm 7\n  ret v0\n}\n"),
	}
	var wire []byte
	for _, f := range fs {
		wire = AppendBinaryFrame(wire, f)
	}
	d := NewStreamDecoder(bytes.NewReader(wire))
	for i, f := range fs {
		g, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if g.String() != f.String() {
			t.Errorf("frame %d decoded differently", i)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}

	// Truncated mid-frame: ErrUnexpectedEOF, not io.EOF.
	d = NewStreamDecoder(bytes.NewReader(wire[:len(wire)-3]))
	if _, err := d.Next(); err != nil {
		t.Fatalf("first frame of truncated stream: %v", err)
	}
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated frame: err = %v, want mid-frame error", err)
	}

	// Oversized frame limit enforced before allocation.
	d = NewStreamDecoder(strings.NewReader("\xff\xff\xff\xff\x7f"))
	d.MaxFrame = 1 << 20
	if _, err := d.Next(); err == nil {
		t.Errorf("oversized frame accepted")
	}
}

// binaryErrorInputs lists inputs DecodeBinary rejects: every
// truncation, single-byte flip and the fixed corruptions of
// TestDecodeBinaryRejectsCorruption, plus well-formed encodings of
// functions that fail validation in the ways TestParseErrors's
// sources do (operand arity, terminator shape, register range) and in
// the ways only a binary body can (an edge out of range, a block
// without a terminator).
func binaryErrorInputs(t *testing.T) [][]byte {
	enc := EncodeBinary(MustParse(binTestSrc))
	var ins [][]byte
	for n := 0; n < len(enc); n++ {
		ins = append(ins, enc[:n])
	}
	ins = append(ins, append(append([]byte{}, enc...), 0))
	for i := range enc {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x2a
		ins = append(ins, mut)
	}
	ins = append(ins, nil, []byte("XGIR\x01"), []byte("PGIR\x63"),
		append(append([]byte{}, enc[:6]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))

	invalid := func(name string, edit func(f *Func)) {
		f := MustParse(binTestSrc)
		edit(f)
		ins = append(ins, EncodeBinary(f))
	}
	invalid("jump arity", func(f *Func) { f.Blocks[1].Succs = append(f.Blocks[1].Succs, 0) })
	invalid("load arity", func(f *Func) { f.Blocks[0].Instrs[0].Uses = nil })
	invalid("virtual out of range", func(f *Func) { f.NumVirt = 3 })
	invalid("NoReg operand", func(f *Func) { f.Blocks[0].Instrs[1].Uses[0] = NoReg })
	invalid("terminator mid-block", func(f *Func) {
		b := f.Blocks[2]
		b.Instrs = append(b.Instrs, b.Instrs[len(b.Instrs)-1])
	})
	invalid("no terminator", func(f *Func) { f.Blocks[2].Instrs = f.Blocks[2].Instrs[:1] })
	invalid("φ arity", func(f *Func) { f.Blocks[2].Instrs[0].Uses = f.Blocks[2].Instrs[0].Uses[:1] })
	invalid("no blocks", func(f *Func) { f.Blocks = nil })
	return ins
}

// binaryErrorsDigest is the SHA-256 of the errors DecodeBinary
// reported for binaryErrorInputs, one per line, before it became a
// wrapper around DecodeBinaryInto.
const binaryErrorsDigest = "f7dcc56688c72e6735a0ec8d35c10703cbe37ec4c0aaccd23bad7e9e0e6850d5"

// DecodeBinaryInto reports every error exactly as DecodeBinary does,
// even into a destination that holds a decoded function, and the
// errors are the ones DecodeBinary always reported.
func TestDecodeBinaryIntoErrors(t *testing.T) {
	h := sha256.New()
	dst := MustParse(binTestSrc)
	for i, data := range binaryErrorInputs(t) {
		_, want := DecodeBinary(data)
		if want == nil {
			continue // a flip in a name or symbol byte is legal
		}
		fmt.Fprintln(h, want)
		if err := DecodeBinaryInto(dst, EncodeBinary(MustParse(binTestSrc))); err != nil {
			t.Fatal(err)
		}
		got := DecodeBinaryInto(dst, data)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("input %d: DecodeBinaryInto error %v, want %v", i, got, want)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != binaryErrorsDigest {
		t.Errorf("errors digest %s, want %s", got, binaryErrorsDigest)
	}
}
