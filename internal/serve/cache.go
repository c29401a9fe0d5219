package serve

import (
	"container/list"
	"sync"
)

// lruCache is a thread-safe fixed-capacity LRU map. Keyed by prediction
// key with structured forecast results as values it is the serving layer's
// first line of defense: DNN graphs repeat identical kernels across layers
// and users repeat identical workload/GPU queries, so the hit rate on
// realistic traffic is high. Keyed by graph request it is the plan memo
// (graphplan.go).
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element

	hits   uint64
	misses uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRUCache returns a cache holding at most capacity entries. A capacity
// of zero or less disables caching (every Get misses, Put is a no-op).
func newLRUCache[K comparable, V any](capacity int) *lruCache[K, V] {
	return &lruCache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *lruCache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		}
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
}

// DropFunc removes every entry whose key satisfies match, returning how
// many were dropped. InvalidateEngine uses it to evict one engine's cache
// slice (keys carry the engine's index) without disturbing the entries
// of the other engines.
func (c *lruCache[K, V]) DropFunc(match func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*lruEntry[K, V]); match(e.key) {
			c.order.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// LenFunc counts the resident entries whose key satisfies match — the
// per-engine slice of a cache shared across engines.
func (c *lruCache[K, V]) LenFunc(match func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if match(el.Value.(*lruEntry[K, V]).key) {
			n++
		}
	}
	return n
}

// Len returns the current entry count.
func (c *lruCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the cumulative hit and miss counts.
func (c *lruCache[K, V]) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
