package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServer builds one server + listener pair for the serving benches.
func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	return newTestServer(b, Config{Workers: 2, MaxInFlight: 8, QueueDepth: 64})
}

// BenchmarkServeCacheHit measures the steady-state hot path: admission,
// epoch pin, cache probe, serve bytes.
func BenchmarkServeCacheHit(b *testing.B) {
	_, ts := benchServer(b)
	url := ts.URL + "/query/cc?graph=social"
	// Warm the entry.
	code, _, _ := get(b, url, nil)
	if code != http.StatusOK {
		b.Fatalf("warmup status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, state, _ := get(b, url, nil)
		if code != http.StatusOK || state != "hit" {
			b.Fatalf("status %d X-Cache %q", code, state)
		}
	}
}

// BenchmarkServeCacheMiss measures the full recompute path by bypassing
// the cache (Cache-Control: no-cache), end to end over HTTP.
func BenchmarkServeCacheMiss(b *testing.B) {
	_, ts := benchServer(b)
	url := ts.URL + "/query/cc?graph=social"
	hdr := map[string]string{"Cache-Control": "no-cache"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, state, _ := get(b, url, hdr)
		if code != http.StatusOK || state != "bypass" {
			b.Fatalf("status %d X-Cache %q", code, state)
		}
	}
}

// BenchmarkServePageRankMiss is the heaviest kernel end to end, uncached.
func BenchmarkServePageRankMiss(b *testing.B) {
	_, ts := benchServer(b)
	hdr := map[string]string{"Cache-Control": "no-cache"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, _ := get(b, ts.URL+"/query/pagerank?graph=social&iters=5&k=3", hdr)
		if code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkAdmission measures the uncontended acquire/release cycle.
func BenchmarkAdmission(b *testing.B) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 8, QueueDepth: 64})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Acquire(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
		a.Release()
	}
}

// BenchmarkAdmissionContended measures acquire/release with queueing: 4
// tenants fighting over 2 slots.
func BenchmarkAdmissionContended(b *testing.B) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, QueueDepth: 1 << 20})
	ctx := context.Background()
	tenants := []string{"t0", "t1", "t2", "t3"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := a.Acquire(ctx, tenants[i%len(tenants)]); err != nil {
				b.Fatal(err)
			}
			a.Release()
			i++
		}
	})
}

// BenchmarkResultCache measures the cache's probe of a cached key.
func BenchmarkResultCache(b *testing.B) {
	c := newResultCache(DefaultCacheBytes, nil)
	body := []byte(`{"graph":"g","epoch":0,"query":"cc","components":1}`)
	keys := make([]cacheKey, 512)
	for i := range keys {
		keys[i] = bfsKey("g", 0, uint32(i))
		c.put(keys[i], body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkServeDeltaThenMiss measures what a delta forces on the two
// kinds that repair a carried vector instead of recomputing: each
// iteration posts a small delta and then misses once, end to end over
// HTTP, on a scale-14 graph (on the 128-vertex fixtures a cold kernel is
// as cheap as a repair). Refresh is the ordinary request; Cold is the same
// request with no-cache, which recomputes.
func BenchmarkServeDeltaThenMiss(b *testing.B) {
	for _, c := range []struct {
		name string
		sym  bool
		path string
	}{
		{"CC", true, "/query/cc?graph=g"},
		{"BFS", false, "/query/bfs?graph=g&source=2"},
	} {
		for _, mode := range []struct {
			name string
			hdr  map[string]string
		}{{"Refresh", nil}, {"Cold", noCache}} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				s, ts := serveOne(b, buildVersioned(b, 14, c.sym, 42))
				get(b, ts.URL+c.path, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					postGrowDelta(b, ts.URL, fmt.Sprintf(`{"graph":"g","edges":[[%d,%d],[%d,%d]]}`,
						i%16384, (7*i+3)%16384, (5*i+1)%16384, 16384+i%64))
					if code, _, _ := get(b, ts.URL+c.path, mode.hdr); code != http.StatusOK {
						b.Fatalf("status %d", code)
					}
				}
				b.StopTimer()
				if got := s.refreshedBFS.Value() + s.refreshedCC.Value(); mode.hdr == nil && got != int64(b.N) {
					b.Fatalf("%d of %d misses were refreshed", got, b.N)
				}
			})
		}
	}
}
