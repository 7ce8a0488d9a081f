package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
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

// TestServedDatalogIsTheBFSAboveSerialCutover: the default Datalog rule is
// a BFS from the source, so on a symmetric and a directed graph above the
// backend's serial cutover (2^19 edges), where its rounds run pull levels
// on the pool through the epoch's in-CSR, it must state what a push-only
// native BFS finds: facts are the reached vertices, rounds the levels, and
// the checksum folds (v, float64(dist[v])) over them in id order — on the
// miss, the hit and the bypass alike, byte for byte.
func TestServedDatalogIsTheBFSAboveSerialCutover(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	for i, name := range []string{"social", "web"} {
		if err := s.AddGraph(name, buildVersioned(t, 17, name == "social", int64(7+i))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, name := range []string{"social", "web"} {
		v, _ := s.Graph(name)
		g := v.Current().CSR()
		if g.NumEdges() <= 1<<19 {
			t.Fatalf("%s: %d edges do not clear the serial cutover", name, g.NumEdges())
		}
		source := uint32(0)
		for u := uint32(0); u < g.NumVertices; u++ {
			if g.Degree(u) > g.Degree(source) {
				source = u
			}
		}
		dist, levels := native.BFSInto(s.Pool(), backend.FromCSR(g), nil, source, "", nil, make([]int32, g.NumVertices))
		facts, sum := 0, uint64(fnvOffset64)
		for u, d := range dist {
			if d >= 0 {
				facts++
				sum = fnv1a(fnv1a(sum, uint64(u), 4), math.Float64bits(float64(d)), 8)
			}
		}
		path := fmt.Sprintf("%s/query/datalog?graph=%s&source=%d", ts.URL, name, source)
		var first []byte
		for _, hdr := range []map[string]string{nil, nil, {"Cache-Control": "no-cache"}} {
			code, state, body := get(t, path, hdr)
			var got datalogResponse
			if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil {
				t.Fatalf("%s %s: status %d, %v (body %.200s)", name, state, code, err, body)
			}
			if got.Facts != facts || got.Rounds != levels || got.Checksum != checksumHex(sum) {
				t.Errorf("%s %s: facts %d rounds %d checksum %s, native BFS %d reached, %d levels, checksum %s",
					name, state, got.Facts, got.Rounds, got.Checksum, facts, levels, checksumHex(sum))
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s %s: body differs from the miss's", name, state)
			}
		}
	}
}

// TestDatalogMissAllocations pins the lowered rule's memory shape: a
// bypass default-rule Datalog miss allocates a bounded number of objects —
// parse, tables, traversal scratch, the response — however many facts it
// stores. A Value per reached vertex would put the count above facts.
func TestDatalogMissAllocations(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	if err := s.AddGraph("social", buildVersioned(t, 12, true, 42)); err != nil {
		t.Fatal(err)
	}
	g, _ := s.graphByName("social")
	snap := g.v.Current()
	q := &query{kind: kindDatalog, source: 1, rule: defaultDatalogRule, bypass: true}
	var resp datalogResponse
	body, err := s.execute(g, snap, q)
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	if err != nil {
		t.Fatal(err)
	}
	const bound = 200
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.execute(g, snap, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d facts", allocs, resp.Facts)
	if allocs > bound || resp.Facts < 10*bound {
		t.Errorf("a Datalog miss storing %d facts allocates %.0f objects, want at most %d and facts at least %d", resp.Facts, allocs, bound, 10*bound)
	}
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
