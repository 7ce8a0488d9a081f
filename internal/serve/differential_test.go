package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// TestServedNumbersMatchDirectKernels is the differential check the
// byte-identity tests cannot give: a cached body can be stable and still
// wrong. Every served number is compared against a direct run on the
// snapshot the server has pinned — the native engine for PageRank, the
// serial references for BFS and triangle counting, the plain kernel for
// connected components — at the first epoch and again after a delta.
func TestServedNumbersMatchDirectKernels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	fetch := func(path string, into any) {
		t.Helper()
		code, _, body := get(t, ts.URL+path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d (body %s)", path, code, body)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	check := func() {
		for _, name := range []string{"social", "web"} {
			v, _ := s.Graph(name)
			snap := v.Current()
			g := snap.CSR()
			where := fmt.Sprintf("%s@%d", name, snap.Epoch())

			for _, tol := range []float64{0, 1e-3} {
				var got pageRankResponse
				fetch(fmt.Sprintf("/query/pagerank?graph=%s&iters=30&k=7&tol=%g", name, tol), &got)
				want, err := native.New().PageRank(g, core.PageRankOptions{Iterations: 30, RandomJump: 0.3, Tolerance: tol})
				if err != nil {
					t.Fatal(err)
				}
				if got.Iterations != want.Stats.Iterations || got.Checksum != checksumFloat64s(want.Ranks) {
					t.Errorf("%s pagerank tol=%g: served %d iterations checksum %s, native engine %d iterations checksum %s",
						where, tol, got.Iterations, got.Checksum, want.Stats.Iterations, checksumFloat64s(want.Ranks))
				}
				if top := highestRanked(want.Ranks, 7); !reflect.DeepEqual(got.Top, top) {
					t.Errorf("%s pagerank tol=%g: served top %v, native engine %v", where, tol, got.Top, top)
				}
				if tol > 0 && got.Iterations == 30 {
					t.Errorf("%s pagerank tol=%g never stopped early; the tolerance path is not exercised", where, tol)
				}
			}

			for _, source := range []uint32{0, 2} {
				checkServedBFS(t, ts.URL, name, g, source, nil)
			}

			var cc ccResponse
			fetch("/query/cc?graph="+name, &cc)
			labels := native.ConnectedComponents(s.Pool(), backend.FromSnapshot(snap))
			sizes := map[uint32]int64{}
			var largest int64
			for _, l := range labels {
				sizes[l]++
				if sizes[l] > largest {
					largest = sizes[l]
				}
			}
			if cc.Components != int64(len(sizes)) || cc.LargestSize != largest {
				t.Errorf("%s cc: served %d components largest %d, kernel %d largest %d",
					where, cc.Components, cc.LargestSize, len(sizes), largest)
			}

			if !v.Options().Symmetrize {
				continue
			}
			var tc tcResponse
			fetch("/query/tc?graph="+name, &tc)
			if want := core.RefTriangleCount(orientAcyclic(t, g)); tc.Triangles != want || want == 0 {
				t.Errorf("%s tc: served %d, reference on the oriented graph %d (must be non-zero)", where, tc.Triangles, want)
			}
		}
	}
	check()
	postGoldenDeltas(t, ts.URL)
	check()
}

// checkServedBFS fetches /query/bfs from source on the named graph, with
// the request headers hdr, and compares the served reached, max_depth and
// checksum with the serial out-edge BFS on g, the graph's current epoch.
func checkServedBFS(t *testing.T, baseURL, name string, g *graph.CSR, source uint32, hdr map[string]string) {
	t.Helper()
	path := fmt.Sprintf("/query/bfs?graph=%s&source=%d", name, source)
	code, _, body := get(t, baseURL+path, hdr)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d (body %s)", path, code, body)
	}
	var got bfsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	want := core.RefBFS(g, source)
	var reached int64
	var depth int32
	for _, d := range want {
		if d >= 0 {
			reached++
		}
		if d > depth {
			depth = d
		}
	}
	if got.Reached != reached || got.MaxDepth != depth || got.Checksum != checksumInt32s(want) {
		t.Errorf("%s@%d bfs source=%d %v: served reached=%d depth=%d checksum=%s, reference reached=%d depth=%d checksum=%s",
			name, got.Epoch, source, hdr, got.Reached, got.MaxDepth, got.Checksum, reached, depth, checksumInt32s(want))
	}
}

// TestServedBFSDirectedAboveSerialCutover: a served directed graph above
// the backend's serial cutover (2^19 edges) — graphserve's web graph at
// -scale 17 — runs bottom-up levels, which read parents through the
// epoch's in-CSR. A cold miss and a bypass from the top-degree vertex must
// both answer the serial out-edge BFS's numbers; reading out-edges as
// parents got tens of thousands of distances wrong here.
func TestServedBFSDirectedAboveSerialCutover(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	v := buildVersioned(t, 17, false, 3)
	if err := s.AddGraph("web", v); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	g := v.Current().CSR()
	if g.NumEdges() <= 1<<19 {
		t.Fatalf("fixture: %d edges do not clear the serial cutover", g.NumEdges())
	}
	var source uint32
	for u := uint32(0); u < g.NumVertices; u++ {
		if g.Degree(u) > g.Degree(source) {
			source = u
		}
	}
	checkServedBFS(t, ts.URL, "web", g, source, nil)
	checkServedBFS(t, ts.URL, "web", g, source, map[string]string{"Cache-Control": "no-cache"})
}

// highestRanked lists the k highest ranks, ties by vertex id — written
// apart from topRanks so the served listing is checked, not replayed.
func highestRanked(ranks []float64, k int) []vertexValue {
	all := make([]vertexValue, len(ranks))
	for v, r := range ranks {
		all[v] = vertexValue{Vertex: uint32(v), Value: r}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Value > all[j].Value })
	return all[:k]
}

// orientAcyclic rebuilds g's edge list as the acyclically oriented,
// sorted-adjacency graph the Table-5 triangle kernels take.
func orientAcyclic(t *testing.T, g *graph.CSR) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		for _, u := range g.Neighbors(v) {
			b.AddEdge(v, u)
		}
	}
	oriented, err := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return oriented
}

// TestQueriesRunOnlyOnThePool pins the one-substrate invariant: with the
// epoch's derived state already bound (the transpose is graph
// construction, built once per epoch on par), every served kind executes
// on the pool MaxInFlight is derived from and claims no par chunk.
func TestQueriesRunOnlyOnThePool(t *testing.T) {
	// Above one worker the generic Datalog evaluator would shard onto par.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, _ := newTestServer(t, Config{Workers: 2})
	g, _ := s.graphByName("social")
	snap := g.v.Current()
	g.bind(snap)

	sched := trace.New().Sched()
	par.SetSchedCounters(sched)
	defer par.SetSchedCounters(nil)
	for _, q := range []*query{
		{kind: kindPageRank, iters: 30, jump: 0.3, tol: 1e-3, topK: 5},
		{kind: kindBFS, source: 2},
		{kind: kindCC},
		{kind: kindTC},
		{kind: kindDatalog, source: 2, rule: defaultDatalogRule},
		// Rules no lowering takes: an edge-driven $SUM goes to the sharded
		// evaluator, a global $INC to the chunked count, both on the pool.
		{kind: kindDatalog, source: 2, rule: "REACH[t]($SUM(d)) :- EDGE(s, t), REACH[s](d0), d = d0 + 1."},
		{kind: kindDatalog, source: 2, rule: "REACH(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z)."},
	} {
		before := sched.Chunks.Value()
		if _, err := s.execute(g, snap, q); err != nil {
			t.Fatalf("%s %s: %v", q.kind, q.rule, err)
		}
		if chunks := sched.Chunks.Value() - before; chunks != 0 {
			t.Errorf("%s %s ran %d par chunks outside the server's pool", q.kind, q.rule, chunks)
		}
	}
}
