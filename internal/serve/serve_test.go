package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// buildVersioned makes a small RMAT graph for tests.
func buildVersioned(t testing.TB, scale int, symmetric bool, seed int64) *graph.Versioned {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(scale, 8, seed))
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	orientation := graph.KeepDirection
	if symmetric {
		orientation = graph.Symmetrize
	}
	b := graph.NewBuilder(uint32(1) << uint(scale))
	b.AddEdges(edges)
	csr, err := b.Build(graph.BuildOptions{
		Orientation:   orientation,
		Dedup:         true,
		DropSelfLoops: true,
		SortAdjacency: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	v, err := graph.NewVersioned(csr, graph.DeltaOptions{Symmetrize: symmetric, DropSelfLoops: true})
	if err != nil {
		t.Fatalf("NewVersioned: %v", err)
	}
	return v
}

// newTestServer builds a server with a social (symmetrized) and web
// (directed) graph and mounts it on an httptest listener.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	if err := s.AddGraph("social", buildVersioned(t, 7, true, 42)); err != nil {
		t.Fatalf("AddGraph social: %v", err)
	}
	if err := s.AddGraph("web", buildVersioned(t, 7, false, 43)); err != nil {
		t.Fatalf("AddGraph web: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches url and returns (status, X-Cache header, body).
func get(t testing.TB, url string, hdr map[string]string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

func TestEndpointsOnOneMux(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// The service mux must carry queries AND the obs diagnostics: one
	// listener, one port.
	for _, path := range []string{
		"/healthz", "/graphs", "/", "/metrics", "/metrics.json",
		"/debug/pprof/", "/query/cc?graph=social",
	} {
		code, _, body := get(t, ts.URL+path, nil)
		if code != http.StatusOK {
			t.Errorf("GET %s: status %d, body %s", path, code, body)
		}
	}
	code, _, body := get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte("graphmaze_serve_requests_total")) {
		t.Errorf("/metrics missing serve counters: status %d body %.200s", code, body)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		path string
		want int
	}{
		{"/query/pagerank?graph=social", http.StatusOK},
		{"/query/pagerank", http.StatusBadRequest},          // no graph
		{"/query/pagerank?graph=nope", http.StatusNotFound}, // unknown graph
		{"/query/wat?graph=social", http.StatusBadRequest},  // unknown kind
		{"/query/pagerank?graph=social&iters=0", http.StatusBadRequest},
		{"/query/pagerank?graph=social&jump=1.5", http.StatusBadRequest},
		{"/query/pagerank?graph=social&iters=abc", http.StatusBadRequest},
		{"/query/bfs?graph=web&source=999999999", http.StatusBadRequest},      // out of range
		{"/query/bfs?graph=web&source=4294967296", http.StatusBadRequest},     // beyond uint32: must not panic
		{"/query/datalog?graph=web&source=4294967296", http.StatusBadRequest}, // beyond uint32: must not panic
		{"/query/tc?graph=web", http.StatusBadRequest},                        // directed graph
		{"/query/tc?graph=social", http.StatusOK},
		{"/query/datalog?graph=web&source=0", http.StatusOK},
	}
	for _, c := range cases {
		code, _, body := get(t, ts.URL+c.path, nil)
		if code != c.want {
			t.Errorf("GET %s: status %d, want %d (body %.200s)", c.path, code, c.want, body)
		}
	}
	// POST to a query endpoint is rejected.
	resp, err := http.Post(ts.URL+"/query/cc?graph=social", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /query/cc: status %d, want 405", resp.StatusCode)
	}
}

// TestUnsettledDatalogRuleIs400: a recursive rule whose values never
// settle (a sum, or a decreasing minimum, around the graph's cycles)
// stops at its round bound with 400 naming the round, and leaves the
// server's pool free: the next query dispatches on the team, not inline.
func TestUnsettledDatalogRuleIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, rule := range []string{
		"REACH[t]($SUM(d)) :- REACH[s](d0), d = d0 + 1, EDGE[s](t).",
		"REACH[t]($MIN(d)) :- REACH[s](d0), d = d0 - 1, EDGE[s](t).",
	} {
		code, _, body := get(t, ts.URL+"/query/datalog?graph=social&source=2&rule="+url.QueryEscape(rule), nil)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte("after round 129")) {
			t.Errorf("%s: status %d, body %.200s; want 400 at round 129 (128 keys + 1)", rule, code, body)
		}
	}
	inline := s.Registry().Counter("backend.pool.inline")
	before := inline.Value()
	if code, _, body := get(t, ts.URL+"/query/pagerank?graph=social", map[string]string{"Cache-Control": "no-cache"}); code != http.StatusOK {
		t.Fatalf("pagerank after the 400s: status %d, body %.200s", code, body)
	}
	if n := inline.Value() - before; n != 0 {
		t.Errorf("%d dispatches found the pool busy after the 400s", n)
	}
}

// TestOversizedDatalogRuleIs400: a rule one byte over maxRuleBytes is
// refused with 400 and adds no cache entry; one at the cap, and the three
// rules the other tests use, answer 200 and add one each.
func TestOversizedDatalogRuleIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	padded := func(n int) string { return defaultDatalogRule + strings.Repeat(" ", n-len(defaultDatalogRule)) }
	for _, c := range []struct {
		rule string
		want int
	}{
		{padded(maxRuleBytes + 1), http.StatusBadRequest},
		{padded(maxRuleBytes), http.StatusOK},
		{defaultDatalogRule, http.StatusOK},
		{"REACH[t]($SUM(d)) :- EDGE(s, t), REACH[s](d0), d = d0 + 1.", http.StatusOK},
		{"REACH(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z).", http.StatusOK},
	} {
		before := s.cache.Len()
		code, _, body := get(t, ts.URL+"/query/datalog?graph=social&source=2&rule="+url.QueryEscape(c.rule), nil)
		entries, wantEntries := s.cache.Len()-before, 0
		if c.want == http.StatusOK {
			wantEntries = 1
		}
		if code != c.want || entries != wantEntries {
			t.Errorf("%d-byte rule: status %d (want %d), %d new cache entries, body %.200s", len(c.rule), code, c.want, entries, body)
		}
	}
}

// queryPaths is the canonical query set the byte-identity tests cover:
// every kind, both graphs where legal.
func queryPaths() []string {
	return []string{
		"/query/pagerank?graph=social&iters=10&k=5",
		"/query/pagerank?graph=web&iters=10&k=5&tol=1e-7",
		"/query/bfs?graph=social&source=1",
		"/query/bfs?graph=web&source=1",
		"/query/cc?graph=social",
		"/query/cc?graph=web",
		"/query/tc?graph=social",
		"/query/datalog?graph=social&source=2",
		"/query/datalog?graph=web&source=2",
	}
}

// TestCacheByteIdentity is the core cache-correctness property: for every
// query kind, the cached body (hit), the first computation (miss), and a
// cache-bypassed recomputation are byte-identical — and the bytes agree
// across pool worker counts (1 and 4), because every kernel is pinned
// bit-identical regardless of parallelism.
func TestCacheByteIdentity(t *testing.T) {
	_, ts1 := newTestServer(t, Config{Workers: 1})
	_, ts4 := newTestServer(t, Config{Workers: 4})
	noCache := map[string]string{"Cache-Control": "no-cache"}
	for _, path := range queryPaths() {
		code, state, first := get(t, ts4.URL+path, nil)
		if code != http.StatusOK || state != "miss" {
			t.Fatalf("GET %s: status %d X-Cache %q, want 200 miss", path, code, state)
		}
		code, state, hit := get(t, ts4.URL+path, nil)
		if code != http.StatusOK || state != "hit" {
			t.Fatalf("GET %s (2nd): status %d X-Cache %q, want 200 hit", path, code, state)
		}
		code, state, bypass := get(t, ts4.URL+path, noCache)
		if code != http.StatusOK || state != "bypass" {
			t.Fatalf("GET %s (no-cache): status %d X-Cache %q, want 200 bypass", path, code, state)
		}
		if !bytes.Equal(first, hit) {
			t.Errorf("%s: cache hit differs from first computation\nmiss: %s\nhit:  %s", path, first, hit)
		}
		if !bytes.Equal(first, bypass) {
			t.Errorf("%s: bypassed recomputation differs from cached body\nmiss:   %s\nbypass: %s", path, first, bypass)
		}
		code, _, w1 := get(t, ts1.URL+path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s (1 worker): status %d", path, code)
		}
		if !bytes.Equal(first, w1) {
			t.Errorf("%s: 4-worker body differs from 1-worker body\n4: %s\n1: %s", path, first, w1)
		}
	}
}

// TestEquivalentSpellingsShareCacheEntry checks fingerprint canonicalization:
// explicit defaults and implicit defaults are the same cache key.
func TestEquivalentSpellingsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, state, _ := get(t, ts.URL+"/query/pagerank?graph=social", nil)
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first spelling: status %d X-Cache %q", code, state)
	}
	for _, spelling := range []string{"iters=20&jump=0.3&tol=0&k=10", "tol=-0", "jump=0x1.3333333333333p-02"} {
		code, state, _ = get(t, ts.URL+"/query/pagerank?graph=social&"+spelling, nil)
		if code != http.StatusOK || state != "hit" {
			t.Fatalf("spelling %q: status %d X-Cache %q, want hit", spelling, code, state)
		}
	}
}

// TestNonFiniteFloatsAre400: every spelling of a NaN, an infinity or an
// out-of-range float in /query/pagerank's jump and tol is refused with
// 400, never a 5xx, and adds no cache entry. ParseFloat accepts NaN and
// Inf, so only range checks that NaN fails keep them from the kernel.
func TestNonFiniteFloatsAre400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, params := range []string{
		"jump=NaN", "jump=nan", "jump=NaN&k=0", "jump=-NaN", "jump=Inf", "jump=+Inf", "jump=-Inf",
		"jump=infinity", "jump=1e400", "jump=0", "jump=1",
		"tol=NaN", "tol=NaN&k=0", "tol=Inf", "tol=+inf", "tol=-Inf", "tol=1e400", "tol=-1",
	} {
		before := s.cache.Len()
		code, _, body := get(t, ts.URL+"/query/pagerank?graph=social&"+params, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %.200s)", params, code, body)
		}
		if n := s.cache.Len() - before; n != 0 {
			t.Errorf("%s: %d new cache entries, want 0", params, n)
		}
	}
}

func TestDeltaAdvancesEpochAndInvalidates(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	path := "/query/cc?graph=social"
	code, state, before := get(t, ts.URL+path, nil)
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("initial query: status %d X-Cache %q", code, state)
	}
	var meta queryMeta
	if err := json.Unmarshal(before, &meta); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if meta.Epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", meta.Epoch)
	}

	// Ingest a delta over HTTP.
	body := `{"graph":"social","edges":[[1,2],[5,9],[9,5]]}`
	resp, err := http.Post(ts.URL+"/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /delta: %v", err)
	}
	var dr deltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decoding delta response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dr.Epoch != 1 {
		t.Fatalf("delta: status %d epoch %d, want 200 epoch 1", resp.StatusCode, dr.Epoch)
	}
	if v, _ := s.Graph("social"); v.Epoch() != 1 {
		t.Fatalf("server graph epoch = %d, want 1", v.Epoch())
	}
	if _, _, m := get(t, ts.URL+"/metrics", nil); !bytes.Contains(m, []byte("\ngraphmaze_serve_graph_social_epoch 1\n")) {
		t.Errorf("/metrics does not show the social graph at epoch 1")
	}

	// The same query now misses (the epoch moved the cache key) and
	// reports the new epoch.
	code, state, after := get(t, ts.URL+path, nil)
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("post-delta query: status %d X-Cache %q, want 200 miss", code, state)
	}
	if err := json.Unmarshal(after, &meta); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if meta.Epoch != 1 {
		t.Errorf("post-delta epoch = %d, want 1", meta.Epoch)
	}
	if bytes.Equal(before, after) {
		t.Errorf("post-delta body identical to pre-delta body (epoch should differ)")
	}
}

// TestDeltaBodyBounded: an oversized /delta body is refused with 413 and
// none of it is applied.
func TestDeltaBodyBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"graph":"social","edges":[` + strings.Repeat("[200,201],", maxDeltaBytes/10) + `[200,201]]}`
	if len(body) <= maxDeltaBytes {
		t.Fatalf("test body is %d bytes, not above the %d limit", len(body), maxDeltaBytes)
	}
	resp, err := http.Post(ts.URL+"/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /delta: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized delta: status %d, want 413", resp.StatusCode)
	}
	if v, _ := s.Graph("social"); v.Epoch() != 0 {
		t.Errorf("oversized delta advanced the graph to epoch %d", v.Epoch())
	}
}

// TestDeltaRejectsMaxVertexID: a /delta naming vertex 4294967295, or
// 4294967294 (whose merge would allocate 64 GiB of offsets for one edge),
// is a 400 on a symmetrized and on a directed graph that allocates under
// 1 MiB; /graphs still shows the old epoch and vertex count, and the next
// valid delta on the graph answers 200 within a deadline (a handler that
// panicked holding the ingest lock wedged it) and publishes the next
// epoch.
func TestDeltaRejectsMaxVertexID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	client := &http.Client{Timeout: 3 * time.Second}
	post := func(body string) int {
		t.Helper()
		resp, err := client.Post(ts.URL+"/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /delta %s: %v", body, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	listing := func() map[string]graphInfo {
		t.Helper()
		code, _, body := get(t, ts.URL+"/graphs", nil)
		var infos []graphInfo
		if err := json.Unmarshal(body, &infos); code != http.StatusOK || err != nil {
			t.Fatalf("/graphs: status %d, %v", code, err)
		}
		byName := map[string]graphInfo{}
		for _, gi := range infos {
			byName[gi.Name] = gi
		}
		return byName
	}
	before := listing()
	for _, name := range []string{"social", "web"} {
		for _, id := range []string{"4294967295", "4294967294"} {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			code := post(`{"graph":"` + name + `","edges":[[` + id + `,0]]}`)
			runtime.ReadMemStats(&m1)
			if code != http.StatusBadRequest {
				t.Errorf("%s: delta naming vertex %s: status %d, want 400", name, id, code)
			}
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s: refusing a delta naming vertex %s allocated %d bytes, want under 1 MiB", name, id, grew)
			}
		}
		after := listing()[name]
		if after.Epoch != before[name].Epoch || after.Vertices != before[name].Vertices {
			t.Errorf("%s: refused delta moved /graphs from epoch %d, %d vertices to epoch %d, %d vertices",
				name, before[name].Epoch, before[name].Vertices, after.Epoch, after.Vertices)
		}
		if code := post(`{"graph":"` + name + `","edges":[[1,2]]}`); code != http.StatusOK {
			t.Errorf("%s: next valid delta: status %d, want 200", name, code)
		}
		if got := listing()[name].Epoch; got != before[name].Epoch+1 {
			t.Errorf("%s: next valid delta published epoch %d, want %d", name, got, before[name].Epoch+1)
		}
	}
}

func TestGraphsListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, _, body := get(t, ts.URL+"/graphs", nil)
	if code != http.StatusOK {
		t.Fatalf("/graphs: status %d", code)
	}
	var infos []graphInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("unmarshal /graphs: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "social" || infos[1].Name != "web" {
		t.Fatalf("graphs = %+v, want sorted [social web]", infos)
	}
	for _, gi := range infos {
		if gi.Vertices == 0 || gi.Edges == 0 {
			t.Errorf("graph %s: empty (%+v)", gi.Name, gi)
		}
		if gi.PersistedEpochs < 1 || gi.PersistedBytes <= 0 {
			t.Errorf("graph %s: epoch store not wired (%+v)", gi.Name, gi)
		}
	}
	if !infos[0].Symmetrized || infos[1].Symmetrized {
		t.Errorf("symmetrized flags wrong: %+v", infos)
	}
}

func TestAddGraphValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if err := s.AddGraph("", nil); err == nil {
		t.Error("AddGraph with empty name/nil graph should fail")
	}
	v := buildVersioned(t, 5, true, 1)
	if err := s.AddGraph("g", v); err != nil {
		t.Fatalf("AddGraph: %v", err)
	}
	if err := s.AddGraph("g", v); err == nil {
		t.Error("duplicate AddGraph should fail")
	}
}

func TestTenantHeaderExtraction(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/query/cc?graph=g", nil)
	if got := tenantOf(r); got != "default" {
		t.Errorf("tenantOf = %q, want default", got)
	}
	r = httptest.NewRequest(http.MethodGet, "/query/cc?graph=g&tenant=bob", nil)
	if got := tenantOf(r); got != "bob" {
		t.Errorf("tenantOf = %q, want bob", got)
	}
	r.Header.Set("X-Tenant", "alice")
	if got := tenantOf(r); got != "alice" {
		t.Errorf("tenantOf = %q, want alice (header wins)", got)
	}
}

func TestIndexLists(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, _, body := get(t, ts.URL+"/", nil)
	if code != http.StatusOK {
		t.Fatalf("/: status %d", code)
	}
	for _, k := range queryKinds() {
		if !bytes.Contains(body, []byte(fmt.Sprintf("/query/%s", k))) {
			t.Errorf("index missing /query/%s:\n%s", k, body)
		}
	}
	code, _, _ = get(t, ts.URL+"/nope", nil)
	if code != http.StatusNotFound {
		t.Errorf("/nope: status %d, want 404", code)
	}
}
