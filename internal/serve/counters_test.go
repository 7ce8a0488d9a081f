package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// metricsJSON is the /metrics.json document.
type metricsJSON struct {
	Counters   map[string]int64           `json:"counters"`
	Gauges     map[string]float64         `json:"gauges"`
	Histograms map[string]json.RawMessage `json:"histograms"`
}

// TestServerCountersAgreeWithClient drives a known mix through Handler()
// and requires the counters /metrics.json reports to equal what the client
// tallied from the responses it got, exactly. It also pins the full list
// of series a fresh server with one graph exposes: renaming or dropping
// one is a change to the service's interface, and fails here.
func TestServerCountersAgreeWithClient(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	// serve.Config has no zero queue depth; the registry hands this
	// controller the counters and gauges the first one resolved.
	s.adm = NewAdmission(AdmissionConfig{MaxInFlight: 1, QueueDepth: 0, Registry: s.reg})
	if err := s.AddGraph("social", buildVersioned(t, 7, true, 42)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	do := func(method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	scrape := func() metricsJSON {
		var m metricsJSON
		if err := json.Unmarshal(do(http.MethodGet, "/metrics.json", "", nil).Body.Bytes(), &m); err != nil {
			t.Fatalf("/metrics.json: %v", err)
		}
		return m
	}

	fresh := scrape()
	var names []string
	for n := range fresh.Counters {
		names = append(names, n)
	}
	for n := range fresh.Gauges {
		names = append(names, n)
	}
	for n := range fresh.Histograms {
		names = append(names, n)
	}
	slices.Sort(names)
	want := []string{
		"backend.pool.busy_frac",
		"backend.pool.dispatch_ns",
		"backend.pool.inline",
		"backend.pool.park_ns",
		"backend.pool.workers",
		"serve.admitted",
		"serve.cache_hits",
		"serve.cache_misses",
		"serve.coalesced",
		"serve.computed",
		"serve.deltas",
		"serve.graph.social.carried_bytes",
		"serve.graph.social.epoch",
		"serve.graph.social.pending_edges",
		"serve.inflight",
		"serve.panics",
		"serve.query.bfs_ns",
		"serve.query.cc_ns",
		"serve.query.datalog_ns",
		"serve.query.pagerank_ns",
		"serve.query.tc_ns",
		"serve.query_ns",
		"serve.queue_wait_ns",
		"serve.queued",
		"serve.refreshed.bfs",
		"serve.refreshed.cc",
		"serve.requests",
		"serve.shed",
	}
	if !slices.Equal(names, want) {
		t.Errorf("series of a fresh server:\n got %q\nwant %q", names, want)
	}

	// The client's own tallies, taken from nothing but the responses.
	tally := map[string]int64{}
	count := func(target string, rec *httptest.ResponseRecorder) {
		tally["serve.requests"]++
		switch {
		case rec.Code == http.StatusTooManyRequests:
			tally["serve.shed"]++
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
		tally["serve.admitted"]++
		switch rec.Header().Get("X-Cache") {
		case "hit":
			tally["serve.cache_hits"]++
		case "miss":
			tally["serve.cache_misses"]++
			tally["serve.computed"]++
		case "bypass":
			tally["serve.computed"]++
		default:
			t.Fatalf("GET %s: X-Cache %q", target, rec.Header().Get("X-Cache"))
		}
	}
	fetch := func(target string, hdr map[string]string) { count(target, do(http.MethodGet, target, "", hdr)) }
	distinct := []string{
		"/query/cc?graph=social",
		"/query/bfs?graph=social&source=1",
		"/query/pagerank?graph=social&iters=3",
	}
	for range 3 { // one miss and two hits each
		for _, target := range distinct {
			fetch(target, nil)
		}
	}
	fetch(distinct[0], noCache)
	if rec := do(http.MethodPost, "/delta", `{"graph":"social","edges":[[1,2],[5,9]]}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("POST /delta: status %d: %s", rec.Code, rec.Body)
	}
	tally["serve.deltas"]++
	fetch(distinct[0], nil) // the new epoch's key: a miss again

	// One request holds the only slot inside execute while a second
	// arrives: with no queue it is shed.
	entered, gate := make(chan struct{}), make(chan struct{})
	s.beforeExecute = func(*query) { close(entered); <-gate }
	held := make(chan *httptest.ResponseRecorder)
	go func() { held <- do(http.MethodGet, "/query/tc?graph=social", "", nil) }()
	<-entered
	fetch(distinct[1], nil)
	close(gate)
	count("/query/tc?graph=social", <-held)

	if tally["serve.shed"] != 1 || tally["serve.cache_hits"] != 6 || tally["serve.cache_misses"] != 5 {
		t.Fatalf("the mix did not go as planned: %v", tally)
	}
	got := scrape().Counters
	for _, name := range []string{
		"serve.requests", "serve.cache_hits", "serve.cache_misses", "serve.computed",
		"serve.admitted", "serve.shed", "serve.deltas",
	} {
		if got[name] != tally[name] {
			t.Errorf("%s = %d on /metrics.json, the client counted %d", name, got[name], tally[name])
		}
	}
}
