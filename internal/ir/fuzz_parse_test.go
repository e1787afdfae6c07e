package ir

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse, which must never panic. A
// function it accepts must survive both wire forms: its printed text
// parses back to the same text and the same binary encoding, and its
// binary encoding decodes back to the same text. Seeds are the
// metamorph corpus.
func FuzzParse(f *testing.F) {
	dir := filepath.Join("..", "metamorph", "testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := Parse(src)
		if err != nil {
			return
		}
		text, enc := fn.String(), EncodeBinary(fn)
		re, err := Parse(text)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, text)
		}
		if got := re.String(); got != text {
			t.Fatalf("printed form reparses differently:\n%s\nvs\n%s", text, got)
		}
		if !bytes.Equal(EncodeBinary(re), enc) {
			t.Fatalf("reparsed function encodes differently")
		}
		dec, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("binary form does not decode: %v", err)
		}
		if got := dec.String(); got != text {
			t.Fatalf("binary form decodes differently:\n%s\nvs\n%s", text, got)
		}
	})
}
