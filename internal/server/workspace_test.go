package server

import (
	"runtime"
	"testing"

	"prefcolor/internal/regalloc"
)

// TestWorkspaceSurvivesGC: an idle workspace stays on the free list
// across garbage collections, so the next borrow reuses it instead of
// building one.
func TestWorkspaceSurvivesGC(t *testing.T) {
	p := newFreeList(2, regalloc.NewWorkspace)
	ws := p.get()
	p.put(ws)
	runtime.GC()
	runtime.GC()
	if got := p.get(); got != ws {
		t.Fatal("borrow after two collections built a new workspace")
	}
	if gets, news := p.counters(); gets != 2 || news != 1 {
		t.Fatalf("gets, news = %d, %d; want 2, 1", gets, news)
	}
}

// TestFreeListBounded: a full list drops what is put back, so it never
// keeps more idle values than its holders.
func TestFreeListBounded(t *testing.T) {
	p := newFreeList(2, regalloc.NewWorkspace)
	a, b, c := p.get(), p.get(), p.get()
	p.put(a)
	p.put(b)
	p.put(c)
	if n := len(p.free); n != 2 {
		t.Fatalf("%d idle workspaces, want 2", n)
	}
	if got := p.get(); got != a {
		t.Fatal("the list did not hand back the first workspace put")
	}
}
