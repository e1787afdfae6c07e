package core

import (
	"testing"

	"prefcolor/internal/regalloc"
)

// NewReferenceDiff returns an allocator that colors every round with a
// and with the reference selector, failing tb on any difference, and
// hands a's result on. With spillFixup set, both also run the recolor
// fixup on spilling rounds, and the real one must keep its spill set
// and CheckResult's verdict.
func NewReferenceDiff(tb testing.TB, a *Allocator, spillFixup bool) regalloc.Allocator {
	d := &referenceDiff{a: a, inner: a, spillFixup: spillFixup, tb: tb}
	if spillFixup {
		d.inner = &fixupOnSpill{Allocator: a, t: tb}
	}
	return d
}
