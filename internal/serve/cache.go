package serve

import (
	"container/list"
	"strings"
	"sync"

	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
)

// cacheKey is the result-cache key: the graph's epoch and the canonical
// query, graph name included. The epoch is part of the key, so a delta
// invalidates every cached result of the graph simply by moving queries
// to a new key — stale entries age out of the LRU, they are never
// flushed. The query is parsed and defaulted, so two spellings of the
// same query share an entry; a bypass never reaches the cache, so bypass
// is false in every key. Probing with it builds no string.
type cacheKey struct {
	epoch graph.Epoch
	q     query
}

// entryOverhead is what an entry costs beside its body and its key's
// strings: the list element, the entry with its key, and the map slot
// holding the key again (TestEntryOverheadCoversTheEntry checks the sum).
const entryOverhead = 384

// entryCost is the bytes an entry is charged: its body, the strings its
// key owns and the fixed overhead.
func entryCost(key cacheKey, body []byte) int64 {
	return int64(len(body)+len(key.q.graph)+len(key.q.rule)) + entryOverhead
}

// resultCache is a mutex-guarded LRU over fully serialized response
// bodies, bounded in bytes: each entry is charged entryCost, and the
// least recently used entries go until the total fits the budget. A body
// that alone exceeds the budget is answered but never stored. Caching
// bytes (not results) is what makes the hit path byte-identical to
// recomputation by construction: the body was produced by exactly one
// marshal of a deterministic kernel's output.
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
	budget   int64
	used     int64
	ll       *list.List // front = most recent
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]chan struct{} // closed by release

	hits, misses *obs.Counter
	bytes        *obs.Gauge
}

// cacheEntry is one cached response body and what it is charged.
type cacheEntry struct {
	key  cacheKey
	body []byte
	cost int64
}

// newResultCache builds an empty cache of budget bytes whose probes count
// into reg's serve.cache_hits / serve.cache_misses and whose charged bytes
// reg's serve.cache_bytes gauge reads.
func newResultCache(budget int64, reg *obs.Registry) *resultCache {
	return &resultCache{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]chan struct{}),
		hits:     reg.Counter("serve.cache_hits"),
		misses:   reg.Counter("serve.cache_misses"),
		bytes:    reg.Gauge("serve.cache_bytes"),
	}
}

// acquire probes key, counting a hit or a miss. A hit returns the cached
// body. A miss with no computation of key in flight returns a nil wait
// and makes the caller the key's leader: it computes, puts the body, and
// must release the key whatever happened. A miss while a leader is in
// flight returns the channel that leader's release closes; the caller
// parks on it and then acquires again — a hit if the leader filled the
// cache, the leadership if it failed.
func (c *resultCache) acquire(key cacheKey) (body []byte, hit bool, wait <-chan struct{}) {
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
// it. Leaders defer it, so a failed, shed or panicking computation strands
// no one.
func (c *resultCache) release(key cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.inflight[key])
	delete(c.inflight, key)
}

// put stores body under key, evicting least recently used entries until
// the charged bytes fit the budget; a body that alone exceeds the budget
// is not stored. Storing an existing key replaces its entry (the bytes are
// identical for a deterministic kernel, so this is a recency bump). The
// stored key owns its strings: the caller's graph name is the registered
// one, and the rule, which may be a slice of the request line, is copied.
func (c *resultCache) put(key cacheKey, body []byte) {
	cost := entryCost(key, body)
	key.q.rule = strings.Clone(key.q.rule)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
	if cost <= c.budget {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, cost: cost})
		c.used += cost
		for c.used > c.budget {
			c.remove(c.ll.Back())
		}
	}
	c.bytes.Set(float64(c.used))
}

// remove drops one entry and its charge. The caller holds c.mu.
func (c *resultCache) remove(el *list.Element) {
	e := c.ll.Remove(el).(*cacheEntry)
	delete(c.entries, e.key)
	c.used -= e.cost
}

// Len reports the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
