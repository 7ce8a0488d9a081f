package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds; a coalescing test that never reaches
// its rendezvous fails here instead of hanging. It is safe off the test
// goroutine (the hooks call it from request goroutines).
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// reply is what one concurrent request saw.
type reply struct {
	code   int
	xcache string
	body   []byte
}

// fire sends n GETs of url at once and returns their replies once all are
// back.
func fire(t testing.TB, n int, url string) []reply {
	t.Helper()
	out := make([]reply, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, xcache, body := get(t, url, nil)
			out[i] = reply{code, xcache, body}
		}(i)
	}
	wg.Wait()
	return out
}

// TestConcurrentIdenticalMissesComputeOnce: sixteen requests for one
// uncached key at a fresh epoch cost one kernel execution. The leader is
// held in execute until the other fifteen are parked, so the count is
// exact: one miss, fifteen hits, sixteen identical bodies.
func TestConcurrentIdenticalMissesComputeOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 32})
	path := "/query/pagerank?graph=social&iters=4&k=3"
	get(t, ts.URL+path, nil) // warm the key at epoch 0: the delta is what uncaches it
	postGrowDelta(t, ts.URL, growDeltas[0])

	const n = 16
	s.beforeExecute = func(*query) {
		waitFor(t, "the other requests to park", func() bool { return s.coalesced.Value() == n-1 })
	}
	computed := s.computed.Value()
	replies := fire(t, n, ts.URL+path)
	if got := s.computed.Value() - computed; got != 1 {
		t.Errorf("%d identical concurrent misses ran execute %d times, want once", n, got)
	}
	hits := 0
	for _, r := range replies {
		if r.code != http.StatusOK || !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("status %d body %s, want 200 and %s", r.code, r.body, replies[0].body)
		}
		if r.xcache == "hit" {
			hits++
		}
	}
	if hits != n-1 {
		t.Errorf("%d of %d replies said X-Cache: hit, want %d", hits, n, n-1)
	}
	_, _, cold := get(t, ts.URL+path, noCache)
	if !bytes.Equal(cold, replies[0].body) {
		t.Errorf("coalesced body %s differs from a cold recompute %s", replies[0].body, cold)
	}
}

// TestCoalescingIsPerKey: while one key's leader is still computing, a
// miss on another key and a no-cache request for the very same key both
// run to completion — nothing queues behind a computation it does not
// share, and a bypass shares none.
func TestCoalescingIsPerKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 8})
	slow := "/query/cc?graph=social"
	gate := make(chan struct{})
	s.beforeExecute = func(q *query) {
		if q.kind == kindCC && !q.bypass {
			<-gate
		}
	}
	done := make(chan reply, 1)
	go func() {
		code, xcache, body := get(t, ts.URL+slow, nil)
		done <- reply{code, xcache, body}
	}()
	waitFor(t, "the cc leader to start", func() bool { return s.computed.Value() == 1 })

	if code, xcache, _ := get(t, ts.URL+"/query/bfs?graph=social&source=1", nil); code != http.StatusOK || xcache != "miss" {
		t.Errorf("another key behind a computing leader: status %d X-Cache %q", code, xcache)
	}
	code, xcache, bypassed := get(t, ts.URL+slow, noCache)
	if code != http.StatusOK || xcache != "bypass" {
		t.Errorf("no-cache for the key being computed: status %d X-Cache %q", code, xcache)
	}
	before := s.computed.Value()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, ts.URL+slow, noCache)
		}()
	}
	wg.Wait()
	if got := s.computed.Value() - before; got != 2 {
		t.Errorf("two concurrent no-cache requests ran execute %d times, want 2: a bypass never coalesces", got)
	}
	if s.coalesced.Value() != 0 {
		t.Errorf("%d requests parked, want none", s.coalesced.Value())
	}

	close(gate)
	if r := <-done; r.code != http.StatusOK || r.xcache != "miss" || !bytes.Equal(r.body, bypassed) {
		t.Errorf("the held leader: status %d X-Cache %q body %s, want 200 miss %s", r.code, r.xcache, r.body, bypassed)
	}
}

// TestParkedRequestHonorsItsContext: a request parked behind a leader
// whose client goes away returns at once, gives its admission slot back,
// and leaves the leader and the key intact.
func TestParkedRequestHonorsItsContext(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 8})
	path := "/query/cc?graph=web"
	gate := make(chan struct{})
	s.beforeExecute = func(*query) { <-gate }
	inflight := s.reg.Gauge("serve.inflight")

	done := make(chan reply, 1)
	go func() {
		code, xcache, body := get(t, ts.URL+path, nil)
		done <- reply{code, xcache, body}
	}()
	waitFor(t, "the leader to start", func() bool { return s.computed.Value() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}()
	waitFor(t, "the second request to park", func() bool { return s.coalesced.Value() == 1 })
	if inflight.Value() != 2 {
		t.Errorf("serve.inflight = %v with a leader and a parked request, want 2", inflight.Value())
	}
	cancel()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("a parked request outlived its cancelled context")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled while parked: status %d, want 503", rec.Code)
	}
	if inflight.Value() != 1 {
		t.Errorf("serve.inflight = %v after the parked request left, want 1 (the leader)", inflight.Value())
	}

	close(gate)
	if r := <-done; r.code != http.StatusOK || r.xcache != "miss" {
		t.Errorf("the leader: status %d X-Cache %q, want 200 miss", r.code, r.xcache)
	}
	if code, xcache, _ := get(t, ts.URL+path, nil); code != http.StatusOK || xcache != "hit" {
		t.Errorf("after the leader: status %d X-Cache %q, want 200 hit", code, xcache)
	}
	if inflight.Value() != 0 {
		t.Errorf("serve.inflight = %v at rest, want 0", inflight.Value())
	}
}

// TestLeaderPanicReleasesItsWaiters: the leader of a key panics inside
// execute with eight requests parked behind it. The leader's client gets a
// 500 instead of a dropped connection; every parked request gets a 200
// with the right bytes, exactly one of them having recomputed; and nothing
// is left behind — no admission slot, no in-flight key, no goroutine.
func TestLeaderPanicReleasesItsWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 32})
	baseline := runtime.NumGoroutine() // pool workers and the listener, no connection yet
	path := "/query/bfs?graph=web&source=2"
	_, _, want := get(t, ts.URL+path, noCache)

	const waiters = 8
	var once sync.Once
	s.beforeExecute = func(*query) {
		once.Do(func() {
			waitFor(t, "the waiters to park", func() bool { return s.coalesced.Value() == waiters })
			panic("injected execute failure")
		})
	}
	computed := s.computed.Value()
	replies := fire(t, waiters+1, ts.URL+path)

	failed, recomputed := 0, 0
	for _, r := range replies {
		switch {
		case r.code == http.StatusInternalServerError:
			failed++
		case r.code != http.StatusOK || !bytes.Equal(r.body, want):
			t.Errorf("status %d body %s, want 200 %s", r.code, r.body, want)
		case r.xcache == "miss":
			recomputed++
		}
	}
	if failed != 1 || recomputed != 1 {
		t.Errorf("%d requests got a 500 and %d recomputed, want 1 and 1", failed, recomputed)
	}
	if got := s.computed.Value() - computed; got != 2 {
		t.Errorf("execute was entered %d times, want 2 (the panic and one recompute)", got)
	}
	if s.panics.Value() != 1 {
		t.Errorf("serve.panics = %d, want 1", s.panics.Value())
	}
	if v := s.reg.Gauge("serve.inflight").Value(); v != 0 {
		t.Errorf("serve.inflight = %v after the panic, want 0", v)
	}
	s.cache.mu.Lock()
	stranded := len(s.cache.inflight)
	s.cache.mu.Unlock()
	if stranded != 0 {
		t.Errorf("%d keys still marked in flight", stranded)
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}
