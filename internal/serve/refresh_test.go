package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"

	"graphmaze/internal/graph"
)

// refreshFixture is one random graph and the delta batches it will ingest,
// from which any number of identical versioned graphs can be built.
type refreshFixture struct {
	n      uint32
	sym    bool
	base   []graph.Edge
	deltas [][]graph.Edge
}

// newRefreshFixture draws a graph of many components — a chain
// 0→1→…→chain-1 for BFS paths worth shortening, and the other vertices in
// dense clusters of eight that nothing connects yet (dense, so that the
// CSR is large enough for the graph to carry all of the test's vectors)
// — and a schedule of deltas of every kind the repairs have to survive.
func newRefreshFixture(rng *rand.Rand, sym bool, steps int) *refreshFixture {
	const chain = 24
	n := uint32(48 + rng.Intn(32))
	f := &refreshFixture{n: n, sym: sym}
	for i := uint32(0); i+1 < chain; i++ {
		f.base = append(f.base, graph.Edge{Src: i, Dst: i + 1})
	}
	for a := uint32(chain); a < n; a++ {
		for b := a &^ 7; b < min(n, a&^7+8); b++ {
			if a != b && rng.Intn(10) > 0 {
				f.base = append(f.base, graph.Edge{Src: a, Dst: b})
			}
		}
	}
	top := n
	for i := 0; i < steps; i++ {
		var d []graph.Edge
		switch rng.Intn(5) {
		case 0: // joins components: an edge from the chain into the rest
			d = append(d, graph.Edge{Src: uint32(rng.Intn(chain)), Dst: chain + uint32(rng.Intn(int(n-chain)))})
		case 1: // shortens BFS paths through several levels
			a := uint32(rng.Intn(chain / 3))
			d = append(d, graph.Edge{Src: a, Dst: a + 3 + uint32(rng.Intn(chain/2))})
		case 2: // grows the vertex space, hanging the new vertex off an old one
			d = append(d, graph.Edge{Src: uint32(rng.Intn(int(top))), Dst: top}, graph.Edge{Src: top, Dst: uint32(rng.Intn(int(top)))})
			top++
		case 3: // wholly duplicate: the epoch advances and nothing is added
			d = append(d, f.base[rng.Intn(len(f.base))], f.base[0])
		default: // a few random edges, one of them a self loop
			for j := 0; j < 3; j++ {
				d = append(d, graph.Edge{Src: uint32(rng.Intn(int(top))), Dst: uint32(rng.Intn(int(top)))})
			}
			d = append(d, graph.Edge{Src: 5, Dst: 5})
		}
		f.deltas = append(f.deltas, d)
	}
	return f
}

// versioned builds the fixture's graph with its first k deltas applied
// directly, behind any server's back.
func (f *refreshFixture) versioned(t testing.TB, k int) *graph.Versioned {
	t.Helper()
	b := graph.NewBuilder(f.n)
	b.AddEdges(f.base)
	opts := graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true}
	if f.sym {
		opts.Orientation = graph.Symmetrize
	}
	csr, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(csr, graph.DeltaOptions{Symmetrize: f.sym, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.deltas[:k] {
		if _, _, _, err := v.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// serveOne mounts a server over one graph named "g".
func serveOne(t testing.TB, v *graph.Versioned) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	if err := s.AddGraph("g", v); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postEdges(t testing.TB, baseURL, name string, edges []graph.Edge) {
	t.Helper()
	pairs := make([][2]uint32, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint32{e.Src, e.Dst}
	}
	body, err := json.Marshal(deltaRequest{Graph: name, Edges: pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/delta", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /delta: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /delta %s: status %d", body, resp.StatusCode)
	}
}

var noCache = map[string]string{"Cache-Control": "no-cache"}

// TestRefreshMatchesColdThroughTheSocket is the standing differential test
// of the carried vectors: on random symmetrized and directed graphs under
// random delta sequences, with one to five deltas between queries so that
// repairs span skipped epochs, every BFS source and CC answer the same
// bytes three ways at every queried epoch — refreshed from the carried
// vector, recomputed cold by a no-cache request, and computed by a fresh
// server that was handed the graph already at that epoch.
func TestRefreshMatchesColdThroughTheSocket(t *testing.T) {
	paths := []string{
		"/query/cc?graph=g",
		"/query/bfs?graph=g&source=0",
		"/query/bfs?graph=g&source=7",
		"/query/bfs?graph=g&source=30",
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, procs := range []int{1, 4} {
		for _, sym := range []bool{true, false} {
			for seed := 0; seed < seeds; seed++ {
				t.Run(fmt.Sprintf("procs%d/sym%v/seed%d", procs, sym, seed), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					rng := rand.New(rand.NewSource(int64(100*seed + procs)))
					f := newRefreshFixture(rng, sym, 30)
					s, ts := serveOne(t, f.versioned(t, 0))
					rounds := 0
					for applied := 0; ; rounds++ {
						_, fresh := serveOne(t, f.versioned(t, applied))
						for _, p := range paths {
							code, xcache, refreshed := get(t, ts.URL+p, nil)
							if code != http.StatusOK || xcache != "miss" {
								t.Fatalf("epoch %d %s: status %d X-Cache %q", applied, p, code, xcache)
							}
							_, _, cold := get(t, ts.URL+p, noCache)
							_, _, want := get(t, fresh.URL+p, nil)
							if !bytes.Equal(refreshed, want) || !bytes.Equal(cold, want) {
								t.Fatalf("epoch %d %s:\nrefreshed %s\n no-cache %s\n    fresh %s", applied, p, refreshed, cold, want)
							}
						}
						fresh.Close()
						if applied == len(f.deltas) {
							break
						}
						for k := 1 + rng.Intn(5); k > 0 && applied < len(f.deltas); k-- {
							postEdges(t, ts.URL, "g", f.deltas[applied])
							applied++
						}
					}
					// Every answer after the first round came from a repair, or
					// the test compared cold runs with cold runs.
					if got, want := s.refreshedBFS.Value(), int64(3*rounds); got != want {
						t.Errorf("%d BFS misses were refreshed, want %d", got, want)
					}
					if got, want := s.refreshedCC.Value(), int64(rounds); got != want {
						t.Errorf("%d CC misses were refreshed, want %d", got, want)
					}
					g, _ := s.graphByName("g")
					g.mu.Lock()
					pending, carriedN := len(g.pending), len(g.carriedVecs)
					g.mu.Unlock()
					if pending != 0 || carriedN != len(paths) {
						t.Errorf("at rest: %d pending deltas and %d carried vectors, want 0 and %d", pending, carriedN, len(paths))
					}
				})
			}
		}
	}
}

// TestStragglerLeavesTheCarriedVectorAlone: a query still pinned to epoch N
// that executes after epoch N+1's refresh took and returned the vector
// runs cold on its own snapshot, answers epoch N's bytes, and neither takes
// the newer vector nor replaces it with its older result.
func TestStragglerLeavesTheCarriedVectorAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	type probe struct {
		path string
		q    *query
		g    *servedGraph
		atN  []byte
	}
	var probes []*probe
	pinned := make(map[string]*graph.Snapshot)
	for _, name := range []string{"social", "web"} {
		g, _ := s.graphByName(name)
		pinned[name] = g.v.Current()
		probes = append(probes,
			&probe{path: "/query/cc?graph=" + name, q: &query{kind: kindCC, graph: name}, g: g},
			&probe{path: "/query/bfs?graph=" + name + "&source=2", q: &query{kind: kindBFS, graph: name, source: 2}, g: g})
	}
	for _, p := range probes {
		_, _, p.atN = get(t, ts.URL+p.path, nil)
	}
	postGoldenDeltas(t, ts.URL)
	for _, p := range probes {
		older := pinned[p.g.name]
		_, _, atN1 := get(t, ts.URL+p.path, nil) // takes the vector, repairs it, returns it at N+1
		refreshed := s.refreshedBFS.Value() + s.refreshedCC.Value()

		late, err := s.execute(p.g, older, p.q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(late, p.atN) {
			t.Errorf("%s: straggler answered %s, epoch %d's body is %s", p.path, late, older.Epoch(), p.atN)
		}
		if s.refreshedBFS.Value()+s.refreshedCC.Value() != refreshed {
			t.Errorf("%s: the straggler repaired a vector", p.path)
		}
		p.g.mu.Lock()
		c := p.g.carriedVecs[p.q.fingerprint()]
		p.g.mu.Unlock()
		if c == nil || c.epoch != older.Epoch()+1 {
			t.Fatalf("%s: carried vector %+v, want epoch %d's", p.path, c, older.Epoch()+1)
		}
		again, err := s.execute(p.g, p.g.v.Current(), p.q)
		if err != nil || !bytes.Equal(again, atN1) {
			t.Errorf("%s: after the straggler the current epoch answers %s (%v), want %s", p.path, again, err, atN1)
		}
	}
	// Per probe: the repair to N+1, and the re-reduction of the vector the
	// straggler left in place.
	if s.refreshedBFS.Value() != 4 || s.refreshedCC.Value() != 4 {
		t.Errorf("refreshed %d BFS and %d CC misses, want 4 and 4", s.refreshedBFS.Value(), s.refreshedCC.Value())
	}
}

// pathGraph is a directed chain over n vertices: the sparsest graph with
// anything to traverse, so its CSR (and with it the carried-vector budget)
// is three vectors' worth.
func pathGraph(t testing.TB, n uint32) *graph.Versioned {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := uint32(0); i+1 < n; i++ {
		b.AddEdges([]graph.Edge{{Src: i, Dst: i + 1}})
	}
	csr, err := b.Build(graph.BuildOptions{Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(csr, graph.DeltaOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func carriedKeys(g *servedGraph) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var keys []string
	for k := range g.carriedVecs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestCarriedVectorsStayWithinTheGraphsOwnBytes: a graph carries at most
// its CSR's bytes of vectors. On a 64-vertex chain that is three; the
// fourth BFS source evicts the vector refreshed longest ago, which is not
// the one created first when that one has been refreshed since.
func TestCarriedVectorsStayWithinTheGraphsOwnBytes(t *testing.T) {
	s, ts := serveOne(t, pathGraph(t, 64))
	g, _ := s.graphByName("g")
	for _, src := range []int{0, 1, 2} {
		get(t, fmt.Sprintf("%s/query/bfs?graph=g&source=%d", ts.URL, src), nil)
	}
	if got := carriedKeys(g); got != "bfs?source=0 bfs?source=1 bfs?source=2" {
		t.Fatalf("carried %q after three sources", got)
	}
	postEdges(t, ts.URL, "g", []graph.Edge{{Src: 0, Dst: 9}})
	get(t, ts.URL+"/query/bfs?graph=g&source=0", nil) // refreshes source 0: source 1 is now the stalest
	_, _, fourth := get(t, ts.URL+"/query/bfs?graph=g&source=3", nil)
	if got := carriedKeys(g); got != "bfs?source=0 bfs?source=2 bfs?source=3" {
		t.Errorf("carried %q after a fourth source, want source 1 evicted", got)
	}
	budget := float64(g.v.Current().CSR().MemoryBytes())
	if got := s.reg.Gauge("serve.graph.g.carried_bytes").Value(); got <= 0 || got > budget {
		t.Errorf("carried_bytes = %v, want within (0, %v]", got, budget)
	}
	// The evicted source still answers, cold, and the same as a bypass.
	postEdges(t, ts.URL, "g", []graph.Edge{{Src: 1, Dst: 30}})
	before := s.refreshedBFS.Value()
	_, _, evicted := get(t, ts.URL+"/query/bfs?graph=g&source=1", nil)
	_, _, cold := get(t, ts.URL+"/query/bfs?graph=g&source=1", noCache)
	if !bytes.Equal(evicted, cold) || s.refreshedBFS.Value() != before {
		t.Errorf("evicted source: %s (refreshed %d), want the cold answer %s", evicted, s.refreshedBFS.Value()-before, cold)
	}
	if bytes.Equal(fourth, evicted) {
		t.Error("fixture: sources 3 and 1 answer the same bytes")
	}
}

// TestVectorFallenTooFarBehindGoesCold: a carried vector nobody asks for
// does not pin an ever-growing list of pending deltas. Once the deltas
// since its epoch weigh more than the graph has vertices it is dropped,
// the list is trimmed, and the next miss runs cold — with the same bytes.
func TestVectorFallenTooFarBehindGoesCold(t *testing.T) {
	s, ts := serveOne(t, pathGraph(t, 64))
	g, _ := s.graphByName("g")
	get(t, ts.URL+"/query/cc?graph=g", nil)
	pendingEdges := s.reg.Gauge("serve.graph.g.pending_edges")
	rng := rand.New(rand.NewSource(3))
	sent := 0
	for carriedKeys(g) != "" {
		if sent > 64 {
			t.Fatalf("the vector survived %d pending entries on a 64-vertex graph", sent)
		}
		// Small batches, some wholly duplicate: an empty delta weighs one.
		d := []graph.Edge{{Src: 3, Dst: 4}}
		if sent%3 != 0 {
			d = []graph.Edge{{Src: uint32(rng.Intn(64)), Dst: uint32(rng.Intn(64))}, {Src: uint32(rng.Intn(64)), Dst: uint32(rng.Intn(64))}}
		}
		postEdges(t, ts.URL, "g", d)
		sent++
		if carriedKeys(g) != "" && pendingEdges.Value() > 64 {
			t.Fatalf("%v pending edges behind a live vector on a 64-vertex graph", pendingEdges.Value())
		}
	}
	if sent < 20 {
		t.Errorf("the vector was dropped after only %d deltas", sent)
	}
	g.mu.Lock()
	pending := len(g.pending)
	g.mu.Unlock()
	if pending != 0 || pendingEdges.Value() != 0 {
		t.Errorf("%d pending deltas (%v edges) with no vector to repair, want none", pending, pendingEdges.Value())
	}
	code, xcache, body := get(t, ts.URL+"/query/cc?graph=g", nil)
	_, _, cold := get(t, ts.URL+"/query/cc?graph=g", noCache)
	if code != http.StatusOK || xcache != "miss" || !bytes.Equal(body, cold) || s.refreshedCC.Value() != 0 {
		t.Errorf("after the drop: status %d X-Cache %q refreshed %d body %s, want a cold miss answering %s", code, xcache, s.refreshedCC.Value(), body, cold)
	}
}

// TestEpochAdvancedBehindTheServiceRunsCold: a delta applied to the
// versioned graph directly leaves no pending entry, so a vector carried
// from before it cannot be repaired across the gap; the miss must notice
// and recompute.
func TestEpochAdvancedBehindTheServiceRunsCold(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	g, _ := s.graphByName("web")
	path := "/query/cc?graph=web"
	get(t, ts.URL+path, nil)
	if _, _, _, err := g.v.ApplyDelta([]graph.Edge{{Src: 90, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	postEdges(t, ts.URL, "web", []graph.Edge{{Src: 77, Dst: 90}})
	_, _, body := get(t, ts.URL+path, nil)
	_, _, cold := get(t, ts.URL+path, noCache)
	if !bytes.Equal(body, cold) || s.refreshedCC.Value() != 0 {
		t.Errorf("across an unrecorded epoch: %s (refreshed %d), want the cold answer %s", body, s.refreshedCC.Value(), cold)
	}
	postEdges(t, ts.URL, "web", []graph.Edge{{Src: 5, Dst: 77}})
	_, _, body = get(t, ts.URL+path, nil)
	_, _, cold = get(t, ts.URL+path, noCache)
	if !bytes.Equal(body, cold) || s.refreshedCC.Value() != 1 {
		t.Errorf("one recorded epoch later: %s (refreshed %d), want a repair answering %s", body, s.refreshedCC.Value(), cold)
	}
}
