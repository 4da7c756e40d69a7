// Package lru is the repository's one bounded least-recently-used map: the
// solve service's result cache and scenario retention, the zone-level
// incremental store and the rate limiter's bucket table are all instances
// of Cache.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a mutex-guarded LRU map holding at most its capacity of entries.
// The first value stored under a key is authoritative: a later Add of the
// same key only refreshes its recency, so concurrent writers racing on one
// key can never observe two different values for it. A Cache is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	max  int
	ll   *list.List // front = most recently used
	ents map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries (callers apply
// their own defaults; a max below 1 caches nothing).
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, ll: list.New(), ents: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ents[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key as the most recently used entry, evicting the
// least recently used one past capacity. If key is already present its value
// is kept and only its recency is refreshed.
func (c *Cache[K, V]) Add(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ents[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.ents[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.ents, oldest.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
