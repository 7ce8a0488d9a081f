package serve

import (
	"container/list"
	"fmt"
	"testing"
	"unsafe"

	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
)

// bfsKey is the cache key of a BFS query from source on graph g at epoch.
func bfsKey(g string, epoch graph.Epoch, source uint32) cacheKey {
	return cacheKey{epoch: epoch, q: query{kind: kindBFS, graph: g, source: source}}
}

func TestCacheKeyIncludesEpoch(t *testing.T) {
	c := newResultCache(DefaultCacheBytes, nil)
	k0 := cacheKey{epoch: 0, q: query{kind: kindCC, graph: "g"}}
	k1 := cacheKey{epoch: 1, q: query{kind: kindCC, graph: "g"}}
	if k0 == k1 {
		t.Errorf("epoch 0 and 1 share a key: %+v", k0)
	}
	c.put(k0, []byte("epoch 0"))
	if _, ok := c.get(k1); ok {
		t.Error("epoch 1 hit epoch 0's entry")
	}
	if body, ok := c.get(cacheKey{epoch: 0, q: query{kind: kindCC, graph: "g"}}); !ok || string(body) != "epoch 0" {
		t.Errorf("an equal key built again = %q %v, want epoch 0's entry", body, ok)
	}
}

// get probes the cache the way a lone request does: a miss takes the
// key's leadership and gives it straight back.
func (c *resultCache) get(key cacheKey) ([]byte, bool) {
	body, hit, wait := c.acquire(key)
	if !hit && wait == nil {
		c.release(key)
	}
	return body, hit
}

func TestCacheHitMissCounting(t *testing.T) {
	c := newResultCache(DefaultCacheBytes, obs.NewRegistry())
	a := bfsKey("g", 0, 1)
	if _, ok := c.get(a); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.put(a, []byte("body-a"))
	body, ok := c.get(a)
	if !ok || string(body) != "body-a" {
		t.Fatalf("get a = %q %v", body, ok)
	}
	if h, m := c.hits.Value(), c.misses.Value(); h != 1 || m != 1 {
		t.Errorf("hits %d misses %d, want 1 1", h, m)
	}
}

// threeEntries is a budget that holds three of the one-byte-body BFS
// entries these tests put, and not four.
var threeEntries = 3 * entryCost(bfsKey("g", 0, 0), []byte{0})

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(threeEntries, nil)
	for i := uint32(0); i < 3; i++ {
		c.put(bfsKey("g", 0, i), []byte{byte(i)})
	}
	// Touch 0 so 1 is the LRU, then insert a fourth entry.
	if _, ok := c.get(bfsKey("g", 0, 0)); !ok {
		t.Fatal("0 missing")
	}
	c.put(bfsKey("g", 0, 3), []byte{3})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.get(bfsKey("g", 0, 1)); ok {
		t.Error("1 should have been evicted (LRU)")
	}
	for _, src := range []uint32{0, 2, 3} {
		if _, ok := c.get(bfsKey("g", 0, src)); !ok {
			t.Errorf("%d should have survived", src)
		}
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := newResultCache(2*entryCost(bfsKey("g", 0, 0), []byte("three")), nil)
	a, b := bfsKey("g", 0, 1), bfsKey("g", 0, 2)
	c.put(a, []byte("one"))
	c.put(b, []byte("two"))
	c.put(a, []byte("one'")) // refresh: a becomes most recent
	c.put(bfsKey("g", 0, 3), []byte("three"))
	if _, ok := c.get(b); ok {
		t.Error("b should have been evicted after a's refresh")
	}
	body, ok := c.get(a)
	if !ok || string(body) != "one'" {
		t.Errorf("a = %q %v, want refreshed body", body, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCacheBytesGaugeFollowsEvictions: serve.cache_bytes reads exactly the
// charge of the entries the cache holds — body, key strings and overhead —
// after every put, through LRU evictions, a refresh with a larger body, and
// a body larger than the whole budget, which is not stored and evicts
// nothing.
func TestCacheBytesGaugeFollowsEvictions(t *testing.T) {
	reg := obs.NewRegistry()
	rule := "REACH(t, $MIN(d)) :- REACH(s, d0), d = d0 + 1, EDGE(s, t)."
	key := func(i int) cacheKey {
		return cacheKey{q: query{kind: kindDatalog, graph: "social", source: uint32(i), rule: rule[:10+i%40]}}
	}
	const budget = 8 << 10
	c := newResultCache(budget, reg)
	gauge := reg.Gauge("serve.cache_bytes")
	check := func(what string) {
		t.Helper()
		var want int64
		c.mu.Lock()
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			want += int64(len(e.body)+len(e.key.q.graph)+len(e.key.q.rule)) + entryOverhead
		}
		c.mu.Unlock()
		if got := gauge.Value(); got != float64(want) || want > budget {
			t.Fatalf("%s: serve.cache_bytes = %v, entries charge %d (budget %d)", what, got, want, budget)
		}
	}
	for i := 0; i < 64; i++ {
		c.put(key(i), make([]byte, 100+37*i))
		check(fmt.Sprintf("put %d", i))
	}
	if c.Len() >= 64 {
		t.Fatalf("Len = %d after 64 puts into %d bytes: nothing was evicted", c.Len(), budget)
	}
	c.put(key(63), make([]byte, 3000)) // the newest entry, grown
	check("refresh")
	n := c.Len()
	huge := cacheKey{q: query{kind: kindCC, graph: "social"}}
	c.put(huge, make([]byte, budget))
	check("oversized body")
	if _, ok := c.get(huge); ok || c.Len() != n {
		t.Errorf("an oversized body was stored (Len %d → %d)", n, c.Len())
	}
}

// TestEntryOverheadCoversTheEntry: the fixed charge is at least what an
// entry holds besides its body and key strings: a list element, the entry
// itself, and a map slot with the key and the element pointer.
func TestEntryOverheadCoversTheEntry(t *testing.T) {
	held := unsafe.Sizeof(list.Element{}) + unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(cacheKey{}) + unsafe.Sizeof(&list.Element{})
	if entryOverhead < held {
		t.Errorf("entryOverhead = %d, an entry holds %d bytes beside its body and strings", entryOverhead, held)
	}
}
