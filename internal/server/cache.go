package server

import (
	"container/list"
	"sync"

	"lapushdb"
)

// Bounded LRU caches. The server runs two of them over the same
// implementation:
//
//   - the plan cache, holding *lapushdb.Prepared values — the parsed
//     query with its minimal plans and merged single plan already
//     enumerated, because plan search is the expensive lifted-inference
//     step; and
//   - the result cache, holding *cachedResult values — fully evaluated
//     answer lists and their JSON, encoded on demand, so a repeated
//     identical request skips evaluation and encoding entirely.
//
// Keys for both are scoped by the pinned store version's fingerprint
// (see cacheKey and resultCacheKey), so every ingested mutation batch
// invalidates stale entries naturally. Cached values are immutable (a
// result entry's encoded prefix only grows, under the entry's lock) and
// may be handed to any number of concurrent requests.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	onEvict func() // metrics hook, called with mu held
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lruCache[V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &lruCache[V]{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached value and promotes it to most recent.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts a value, evicting the least recently used entry when the
// cache is full. Re-inserting an existing key refreshes its value and
// recency.
func (c *lruCache[V]) put(key string, v V) { c.putIf(key, v, nil) }

// putIf is put with a compare-and-swap guard: when the key is already
// present and keep(old) reports true, the existing value is retained
// (its recency still refreshes). The check and the write happen under
// one lock acquisition, so two concurrent inserts can never interleave
// a get-then-put and let the value keep() meant to protect be
// overwritten. A nil keep always replaces.
func (c *lruCache[V]) putIf(key string, v V, keep func(old V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry[V])
		if keep == nil || !keep(ent.val) {
			ent.val = v
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// len returns the number of cached entries.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// planCache is the prepared-statement LRU (see the package comment
// above for what it stores and why).
type planCache = lruCache[*lapushdb.Prepared]

func newPlanCache(capacity int) *planCache { return newLRU[*lapushdb.Prepared](capacity) }
