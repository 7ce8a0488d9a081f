package serve

import (
	"fmt"
	"testing"

	"graphmaze/internal/obs"
)

func TestCacheKeyIncludesEpoch(t *testing.T) {
	k0 := cacheKey("g", 0, "cc")
	k1 := cacheKey("g", 1, "cc")
	if k0 == k1 {
		t.Errorf("epoch 0 and 1 share a key: %s", k0)
	}
	if k0 != "g@0|cc" {
		t.Errorf("key format = %q, want g@0|cc", k0)
	}
	if cacheKey("g", 0, "cc") != k0 {
		t.Error("key not deterministic")
	}
}

// get probes the cache the way a lone request does: a miss takes the
// key's leadership and gives it straight back.
func (c *resultCache) get(key string) ([]byte, bool) {
	body, hit, wait := c.acquire(key)
	if !hit && wait == nil {
		c.release(key)
	}
	return body, hit
}

func TestCacheHitMissCounting(t *testing.T) {
	c := newResultCache(4, obs.NewRegistry())
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.put("a", []byte("body-a"))
	body, ok := c.get("a")
	if !ok || string(body) != "body-a" {
		t.Fatalf("get a = %q %v", body, ok)
	}
	if h, m := c.hits.Value(), c.misses.Value(); h != 1 || m != 1 {
		t.Errorf("hits %d misses %d, want 1 1", h, m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(3, nil)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 is the LRU, then insert a fourth entry.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k3", []byte{3})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.get("k1"); ok {
		t.Error("k1 should have been evicted (LRU)")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := newResultCache(2, nil)
	c.put("a", []byte("one"))
	c.put("b", []byte("two"))
	c.put("a", []byte("one'")) // refresh: a becomes most recent
	c.put("c", []byte("three"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted after a's refresh")
	}
	body, ok := c.get("a")
	if !ok || string(body) != "one'" {
		t.Errorf("a = %q %v, want refreshed body", body, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}
