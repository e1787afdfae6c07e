package server

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func testKey(i int) Key {
	return KeyFor(sha256.Sum256([]byte(fmt.Sprintf("func k%d() {\nb0:\n  ret r0\n}\n", i))), Spec{})
}

func testEntry(i int) *entry {
	return newEntry(fmt.Sprintf("f%d", i), fmt.Sprintf("d%d", i), statsJSON{}, "", 0)
}

// TestFlightGroupSingleLeader floods one key from many goroutines and
// asserts exactly one caller computes per flight; run under -race this
// also exercises the publication path.
func TestFlightGroupSingleLeader(t *testing.T) {
	g := newFlightGroup()
	key := testKey(0)
	const callers = 32

	want := testEntry(7)
	var leaders, computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			call, leader := g.join(key)
			if leader {
				leaders.Add(1)
				computes.Add(1)
				g.complete(key, call, want, nil, 0)
			}
			<-call.done
			if call.val != want {
				t.Errorf("caller saw %+v, want shared f7", call.val)
			}
		}()
	}
	close(start)
	wg.Wait()

	// All callers overlapped one flight window or raced into several;
	// either way every flight had exactly one computation and leaders
	// plus shared waiters account for every caller.
	if computes.Load() != leaders.Load() {
		t.Errorf("computes=%d leaders=%d", computes.Load(), leaders.Load())
	}
	if leaders.Load()+g.Shared() != callers {
		t.Errorf("leaders=%d shared=%d, want sum %d", leaders.Load(), g.Shared(), callers)
	}
	if leaders.Load() < 1 {
		t.Error("no leader at all")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	src := sha256.Sum256([]byte("func f(v0) {\nb0:\n  ret v0\n}\n"))
	base := Spec{Machine: "ia64", K: 16, Allocator: "pref-full"}
	if KeyFor(src, base) != KeyFor(src, base) {
		t.Error("identical requests produced different keys")
	}
	variants := []Spec{
		{Machine: "x86", K: 16, Allocator: "pref-full"},
		{Machine: "ia64", K: 24, Allocator: "pref-full"},
		{Machine: "ia64", K: 16, Allocator: "chaitin"},
		{Machine: "ia64", K: 16, Allocator: "pref-full", Optimize: true},
		{Machine: "ia64", K: 16, Allocator: "pref-full", Rematerialize: true},
		{Machine: "ia64", K: 16, Allocator: "pref-full", BlockLocalSpills: true},
		{Machine: "ia64", K: 16, Allocator: "pref-full", MaxRounds: 3},
	}
	seen := map[Key]bool{KeyFor(src, base): true}
	for _, v := range variants {
		k := KeyFor(src, v)
		if seen[k] {
			t.Errorf("spec %+v collided with another key", v)
		}
		seen[k] = true
	}
	if seen[KeyFor(sha256.Sum256([]byte("func g() {\nb0:\n  ret r0\n}\n")), base)] {
		t.Error("different source collided")
	}
}
