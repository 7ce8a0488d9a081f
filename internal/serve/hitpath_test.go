package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// headerWriter is a ResponseWriter that keeps one header map across
// requests and discards the body, so what it costs is nothing after the
// first request has added its header keys.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *headerWriter) WriteHeader(int)             {}

// TestHitPathDoesNotAllocate: a warmed cache hit through handleQuery —
// parse, graph lookup, epoch pin, cache probe, latency record, headers
// and body — allocates nothing in the package. Every query kind's
// parameters are on the path: the probe builds no string.
func TestHitPathDoesNotAllocate(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	for _, path := range []string{
		"/query/pagerank?graph=social&iters=5&jump=0.25&k=3",
		"/query/bfs?graph=web&source=1",
		"/query/cc?graph=social",
		"/query/datalog?graph=social&source=2",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := &headerWriter{h: http.Header{}}
		s.handleQuery(w, req) // the miss that fills the cache
		hits := s.cache.hits.Value()
		s.handleQuery(w, req)
		if w.h.Get("X-Cache") != "hit" || s.cache.hits.Value() != hits+1 {
			t.Fatalf("%s: X-Cache %q after the miss, want hit", path, w.h.Get("X-Cache"))
		}
		if n := testing.AllocsPerRun(100, func() { s.handleQuery(w, req) }); n != 0 {
			t.Errorf("%s: a cache hit allocates %v times", path, n)
		}
	}
}

// holdSlot starts a request for url whose execute blocks until the
// returned release is called, and returns once that request holds an
// admission slot. done yields its reply.
func holdSlot(t *testing.T, s *Server, url string) (release func(), done <-chan reply) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.beforeExecute = func(query) {
		once.Do(func() { close(entered); <-gate })
	}
	out := make(chan reply, 1)
	go func() {
		code, xcache, body := get(t, url, nil)
		out <- reply{code, xcache, body}
	}()
	<-entered
	return func() { close(gate) }, out
}

// TestHitIsNeverShed: with the only admission slot held by a computing
// leader and the one queue place taken by a second key, a cached key still
// answers 200 hit, a third key is shed with 429, and the shed key is not
// stranded: once the slot frees, the next request for it leads and
// computes.
func TestHitIsNeverShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 1, QueueDepth: 1})
	cached := ts.URL + "/query/cc?graph=social"
	shed := ts.URL + "/query/bfs?graph=social&source=3"
	if code, xcache, _ := get(t, cached, nil); code != http.StatusOK || xcache != "miss" {
		t.Fatalf("warming: status %d X-Cache %q", code, xcache)
	}

	release, leader := holdSlot(t, s, ts.URL+"/query/cc?graph=web")
	queuedG := s.reg.Gauge("serve.queued")
	queued := make(chan reply, 1)
	go func() {
		code, xcache, body := get(t, ts.URL+"/query/bfs?graph=web&source=1", nil)
		queued <- reply{code, xcache, body}
	}()
	waitFor(t, "the second key to queue", func() bool { return queuedG.Value() == 1 })

	if code, xcache, _ := get(t, cached, nil); code != http.StatusOK || xcache != "hit" {
		t.Errorf("a cached key with the slot held and the queue full: status %d X-Cache %q, want 200 hit", code, xcache)
	}
	if code, _, body := get(t, shed, nil); code != http.StatusTooManyRequests {
		t.Errorf("a third key with the slot held and the queue full: status %d (%s), want 429", code, body)
	}

	release()
	for what, ch := range map[string]<-chan reply{"the leader": leader, "the queued key": queued} {
		if r := <-ch; r.code != http.StatusOK || r.xcache != "miss" {
			t.Errorf("%s: status %d X-Cache %q, want 200 miss", what, r.code, r.xcache)
		}
	}
	if code, xcache, _ := get(t, shed, nil); code != http.StatusOK || xcache != "miss" {
		t.Errorf("the shed key afterwards: status %d X-Cache %q, want 200 miss (it leads)", code, xcache)
	}
	if v := s.reg.Gauge("serve.inflight").Value(); v != 0 {
		t.Errorf("serve.inflight = %v at rest, want 0", v)
	}
}

// TestShedLeaderReleasesItsKey: with no slot and no queue place free,
// many concurrent requests for one key each lead it in turn — some after
// parking behind a leader that was shed — and each is shed. None hangs,
// no key is left in flight, and once the slot frees the key computes.
func TestShedLeaderReleasesItsKey(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// serve.Config has no zero queue depth; the registry hands this
	// controller the instruments the first one resolved.
	s.adm = NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 0, Registry: s.reg})
	path := ts.URL + "/query/pagerank?graph=web&iters=3"
	release, leader := holdSlot(t, s, ts.URL+"/query/cc?graph=web")

	const n = 16
	shed := s.adm.shed.Value()
	for _, r := range fire(t, n, path) {
		if r.code != http.StatusTooManyRequests {
			t.Errorf("status %d X-Cache %q with no slot free, want 429", r.code, r.xcache)
		}
	}
	if got := s.adm.shed.Value() - shed; got != n {
		t.Errorf("serve.shed moved by %d, want %d: every request led and was shed", got, n)
	}
	s.cache.mu.Lock()
	stranded := len(s.cache.inflight)
	s.cache.mu.Unlock()
	if stranded != 1 { // the held leader's own key
		t.Errorf("%d keys in flight, want 1 (the held leader's)", stranded)
	}

	release()
	if r := <-leader; r.code != http.StatusOK {
		t.Errorf("the held leader: status %d", r.code)
	}
	if code, xcache, _ := get(t, path, nil); code != http.StatusOK || xcache != "miss" {
		t.Errorf("the shed key afterwards: status %d X-Cache %q, want 200 miss", code, xcache)
	}
}

// TestQueryRoutingMatchesTheMux: Handler sends a clean /query/ path
// straight to handleQuery; every request in a corpus of clean, unclean,
// escaped and misspelt paths gets the status, headers and body it gets
// from the mux alone. The two servers see the same sequence, so their
// caches agree on hit and miss.
func TestQueryRoutingMatchesTheMux(t *testing.T) {
	routed, _ := newTestServer(t, Config{Workers: 2})
	plain, _ := newTestServer(t, Config{Workers: 2})
	muxOnly := plain.newMux()
	corpus := []struct{ method, target string }{
		{http.MethodGet, "/query/bfs?graph=social&source=1"},
		{http.MethodGet, "/query/bfs?graph=social&source=1"},
		{http.MethodGet, "/query/cc?graph=web"},
		{http.MethodGet, "/query/"},
		{http.MethodGet, "/query"},
		{http.MethodGet, "/query//bfs?graph=social"},
		{http.MethodGet, "/query/./bfs?graph=social"},
		{http.MethodGet, "/query/../delta"},
		{http.MethodGet, "/query/bfs/?graph=social"},
		{http.MethodGet, "/query/%2e%2e/delta?graph=social"},
		{http.MethodGet, "/query/%2E%2E/graphs"},
		{http.MethodGet, "/query%2Fbfs?graph=social"},
		{http.MethodGet, "/%71uery/bfs?graph=social&source=1"},
		{http.MethodGet, "/query/b%66s?graph=social&source=1"},
		{http.MethodGet, "/query/nope?graph=social"},
		{http.MethodGet, "/query/bfs?graph=nope"},
		{http.MethodGet, "/QUERY/bfs?graph=social"},
		{http.MethodPost, "/query/bfs?graph=social"},
		{http.MethodHead, "/query/cc?graph=social"},
		{http.MethodConnect, "/query/bfs?graph=social"},
		{http.MethodGet, "/graphs"},
		{http.MethodGet, "/"},
	}
	for _, c := range corpus {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		routed.Handler().ServeHTTP(got, httptest.NewRequest(c.method, c.target, nil))
		muxOnly.ServeHTTP(want, httptest.NewRequest(c.method, c.target, nil))
		if got.Code != want.Code {
			t.Errorf("%s %s: status %d, the mux answers %d", c.method, c.target, got.Code, want.Code)
		}
		if !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("%s %s: headers %v, the mux answers %v", c.method, c.target, got.Header(), want.Header())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s %s: body %q, the mux answers %q", c.method, c.target, got.Body, want.Body)
		}
	}
}

// TestHandlerHitDoesNotAllocate: a warmed hit through Handler, the
// server's whole HTTP surface, allocates nothing once the header map is
// reused — the /query/ route costs no mux lookup.
func TestHandlerHitDoesNotAllocate(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/query/pagerank?graph=social&iters=5&k=3", nil)
	w := &headerWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	h.ServeHTTP(w, req)
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q after the miss, want hit", w.h.Get("X-Cache"))
	}
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); n != 0 {
		t.Errorf("a cache hit through Handler allocates %v times", n)
	}
}
