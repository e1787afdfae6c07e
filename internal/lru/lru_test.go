package lru

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 0)
	c.Add("b", 1)

	// Touch a so b becomes the least recently used entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Add("c", 2)

	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order ignored the Get(a) refresh")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite being most recently used")
	}
	if v, ok := c.Get("c"); !ok || v != 2 {
		t.Errorf("c = %d ok=%v after insert, want 2", v, ok)
	}
	if n := c.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	hits, misses, evictions := c.Counters()
	if hits != 3 || misses != 1 || evictions != 1 {
		t.Errorf("hits=%d misses=%d evictions=%d, want 3 1 1", hits, misses, evictions)
	}
}

func TestLRURefreshOnAdd(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 0)
	c.Add("b", 1)
	c.Add("a", 10) // refresh a: b is now oldest
	c.Add("c", 2)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; re-Add of a did not refresh recency")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("a = %d ok=%v, want refreshed value 10", v, ok)
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		c.Add("a", 0)
		if _, ok := c.Get("a"); ok {
			t.Errorf("capacity %d: cache returned a hit", capacity)
		}
		if n := c.Len(); n != 0 {
			t.Errorf("capacity %d: len = %d, want 0", capacity, n)
		}
	}
}

// TestLRUHitsSurviveReAdd pins what the tier upgrader's hot-first
// order relies on: a re-Add (the upgrade swapping in its full-tier
// entry) keeps the entry's hit count, and Hits itself neither counts
// as a hit nor refreshes recency.
func TestLRUHitsSurviveReAdd(t *testing.T) {
	c := New[string, int](2)
	c.Add("hot", 0)
	c.Add("cold", 1)
	for range 3 {
		c.Get("hot")
	}
	c.Add("hot", 100)
	if got := c.Hits("hot"); got != 3 {
		t.Errorf("Hits(hot) after re-Add = %d, want 3", got)
	}
	if got := c.Hits("cold"); got != 0 {
		t.Errorf("Hits(cold) = %d, want 0", got)
	}
	if got := c.Hits("absent"); got != 0 {
		t.Errorf("Hits(absent) = %d, want 0", got)
	}
	if hits, misses, _ := c.Counters(); hits != 3 || misses != 0 {
		t.Errorf("Hits counted as a lookup: hits=%d misses=%d, want 3 0", hits, misses)
	}

	// cold is the least recently used entry; Hits(cold) above must not
	// have refreshed it.
	c.Add("new", 2)
	if _, ok := c.Get("cold"); ok {
		t.Error("cold survived eviction; Hits refreshed its recency")
	}
	if got := c.Hits("hot"); got != 3 {
		t.Errorf("Hits(hot) after an eviction = %d, want 3", got)
	}
}

// TestLRUMatchesModel runs random Get/Add traffic against a plain
// recency slice and checks every answer, the entry count and the
// recency order the eviction victims imply.
func TestLRUMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 5, 16} {
		c := New[int, int](capacity)
		var order []int // most recent first
		vals := map[int]int{}
		for step := 0; step < 5000; step++ {
			key := rng.Intn(3 * capacity)
			pos := slices.Index(order, key)
			if rng.Intn(2) == 0 {
				v, ok := c.Get(key)
				if ok != (pos >= 0) || ok && v != vals[key] {
					t.Fatalf("cap %d step %d: Get(%d) = %d,%v; model %d,%v",
						capacity, step, key, v, ok, vals[key], pos >= 0)
				}
				if ok {
					order = append([]int{key}, slices.Delete(order, pos, pos+1)...)
				}
				continue
			}
			c.Add(key, step)
			vals[key] = step
			if pos >= 0 {
				order = slices.Delete(order, pos, pos+1)
			} else if len(order) == capacity {
				order = order[:capacity-1]
			}
			order = append([]int{key}, order...)
			if c.Len() != len(order) {
				t.Fatalf("cap %d step %d: len %d, model %d", capacity, step, c.Len(), len(order))
			}
		}
	}
}

// TestLRUConcurrent drives one cache from several goroutines; under
// -race it checks that every method holds the lock.
func TestLRUConcurrent(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := (i * (g + 1)) % 16
				c.Add(key, key)
				if v, ok := c.Get(key ^ 1); ok && v != key^1 {
					t.Errorf("Get(%d) = %d", key^1, v)
				}
				c.Hits(key)
				if n := c.Len(); n > 8 {
					t.Errorf("len %d over capacity 8", n)
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses, _ := c.Counters(); hits+misses != 4*2000 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 4*2000)
	}
}

// BenchmarkLRUGetHit is the cost of a hit, paid by every cached
// request in the key memo and again in the result cache; it must
// report 0 allocs/op.
func BenchmarkLRUGetHit(b *testing.B) {
	type key [32]byte
	c := New[key, *int](1024)
	keys := make([]key, 1024)
	for i := range keys {
		keys[i][0], keys[i][1] = byte(i), byte(i>>8)
		c.Add(keys[i], new(int))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i&1023]); !ok {
			b.Fatal("miss")
		}
	}
}
