// Package lru is the fixed-capacity least-recently-used map behind the
// daemon's result cache and key memo and the router's body memo.
package lru

import "sync"

// Cache maps keys to values and evicts the least recently used entry
// when full. A capacity of zero or less disables it: every Get misses
// and Add drops. It is safe for concurrent use.
//
// Entries live in one slot array linked by index into a recency list,
// so a Get hit allocates nothing and a full cache reuses the evicted
// entry's slot.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	index    map[K]int
	slots    []slot[K, V]
	head     int // most recently used slot; -1 when empty
	tail     int // least recently used slot; -1 when empty

	hits, misses, evictions int64
}

type slot[K comparable, V any] struct {
	key        K
	val        V
	hits       int64 // Gets this entry has served
	prev, next int   // toward head / toward tail; -1 at the ends
}

// New returns an empty cache of the given capacity.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, index: make(map[K]int), head: -1, tail: -1}
}

// Get returns key's value, marking the entry most recently used and
// counting a hit for it.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.slots[i].hits++
	c.moveToFront(i)
	return c.slots[i].val, true
}

// Hits returns how many Gets key's entry has served; zero when the key
// is absent or was evicted. Unlike Get it neither refreshes recency nor
// counts as a hit.
func (c *Cache[K, V]) Hits(key K) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		return c.slots[i].hits
	}
	return 0
}

// Add stores val under key and marks the entry most recently used. A
// re-Add replaces the value and keeps the entry's hit count; a new key
// in a full cache evicts the least recently used entry.
func (c *Cache[K, V]) Add(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.slots[i].val = val
		c.moveToFront(i)
		return
	}
	var i int
	if len(c.slots) < c.capacity {
		i = len(c.slots)
		c.slots = append(c.slots, slot[K, V]{})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].key)
		c.evictions++
	}
	c.slots[i] = slot[K, V]{key: key, val: val, prev: -1, next: -1}
	c.index[key] = i
	c.pushFront(i)
}

// Len is the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Counters returns the hit, miss and eviction totals.
func (c *Cache[K, V]) Counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

func (c *Cache[K, V]) moveToFront(i int) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache[K, V]) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (c *Cache[K, V]) pushFront(i int) {
	c.slots[i].next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
