package serve

import (
	"container/list"
	"fmt"
	"sync"

	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
)

// cacheKey builds the result-cache key: the epoch is part of the key, so
// a delta invalidates every cached result of the graph simply by moving
// queries to a new key — stale entries age out of the LRU, they are never
// flushed. The fingerprint is the canonical (parsed, defaulted,
// re-serialized) query, so two spellings of the same query share an
// entry.
func cacheKey(graphName string, epoch graph.Epoch, fingerprint string) string {
	return fmt.Sprintf("%s@%d|%s", graphName, epoch, fingerprint)
}

// resultCache is a mutex-guarded LRU over fully serialized response
// bodies. Caching bytes (not results) is what makes the hit path
// byte-identical to recomputation by construction: the body was produced
// by exactly one marshal of a deterministic kernel's output.
//
// It also coalesces misses. The first request to miss a key becomes the
// key's leader and computes; a request that misses the same key while the
// leader is in flight gets a channel to park on instead of a second
// computation. The in-flight table lives under the entries' own mutex so
// that "cached, in flight, or neither" is one atomic answer: there is no
// window in which a leader has filled the cache and a newcomer still
// starts computing.
type resultCache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recent
	entries  map[string]*list.Element
	inflight map[string]chan struct{} // closed by release

	hits, misses *obs.Counter
}

// cacheEntry is one cached response body.
type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache builds an empty cache whose probes count into reg's
// serve.cache_hits / serve.cache_misses.
func newResultCache(maxEntries int, reg *obs.Registry) *resultCache {
	return &resultCache{
		max:      maxEntries,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]chan struct{}),
		hits:     reg.Counter("serve.cache_hits"),
		misses:   reg.Counter("serve.cache_misses"),
	}
}

// acquire probes key, counting a hit or a miss. A hit returns the cached
// body. A miss with no computation of key in flight returns a nil wait
// and makes the caller the key's leader: it computes, puts the body, and
// must release the key whatever happened. A miss while a leader is in
// flight returns the channel that leader's release closes; the caller
// parks on it and then acquires again — a hit if the leader filled the
// cache, the leadership if it failed.
func (c *resultCache) acquire(key string) (body []byte, hit bool, wait <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).body, true, nil
	}
	c.misses.Add(1)
	if ch, ok := c.inflight[key]; ok {
		return nil, false, ch
	}
	c.inflight[key] = make(chan struct{})
	return nil, false, nil
}

// release ends the caller's leadership of key and wakes whoever parked on
// it. Leaders defer it, so a failed or panicking computation strands no
// one.
func (c *resultCache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.inflight[key])
	delete(c.inflight, key)
}

// put stores body under key, evicting the least recently used entry when
// full. Storing an existing key refreshes its body (the bytes are
// identical for a deterministic kernel, so this is a recency bump).
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
