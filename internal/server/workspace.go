package server

import (
	"sync/atomic"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
)

// space is the storage one job borrows from a free list and hands
// back when it ends: the allocator's workspace W, the function a
// binary body decodes into, and the buffer the output text renders
// into. Each is overwritten by its next user.
type space[W any] struct {
	ws   W
	fn   ir.Func
	text []byte
}

// render writes out's text into the space's buffer and returns those
// bytes with the digest of the allocation, whose input function was
// named name: the reply's function text and digest, built without a
// string of the text. The bytes are valid until the space's next user.
func (sp *space[W]) render(name string, out *ir.Func, stats *regalloc.Stats) ([]byte, string) {
	sp.text = out.AppendText(sp.text[:0])
	return sp.text, bench.TextDigest(name, stats, sp.text)
}

// spaceBuilder returns a free-list constructor for spaces around
// workspaces built by mk.
func spaceBuilder[W any](mk func() W) func() *space[W] {
	return func() *space[W] { return &space[W]{ws: mk()} }
}

// freeList hands reusable scratch values (job spaces) to the goroutines that compute jobs. It keeps at most as
// many idle values as goroutines can hold one at once, which bounds how
// many live. Unlike a sync.Pool, a garbage collection never empties
// it, so a value is built from nothing only while the list fills up.
// Values go back dirty: their users clear on borrow. The counters feed
// the /metrics hit-rate: a get that found an idle value cost nothing,
// a get that had to construct one (news) will pay the arena's
// grow-to-steady-state allocations during its Run.
type freeList[T any] struct {
	free  chan T
	build func() T
	gets  atomic.Int64
	news  atomic.Int64
}

// newFreeList returns a list that keeps up to holders idle values and
// builds new ones with mk.
func newFreeList[T any](holders int, mk func() T) *freeList[T] {
	return &freeList[T]{free: make(chan T, max(holders, 1)), build: mk}
}

func (p *freeList[T]) get() T {
	p.gets.Add(1)
	select {
	case v := <-p.free:
		return v
	default:
		p.news.Add(1)
		return p.build()
	}
}

// put returns v to the list, or drops it when the list is full.
func (p *freeList[T]) put(v T) {
	select {
	case p.free <- v:
	default:
	}
}

// counters returns (gets, news) so far.
func (p *freeList[T]) counters() (int64, int64) {
	return p.gets.Load(), p.news.Load()
}
