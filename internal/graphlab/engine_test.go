package graphlab

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

func fixtureDirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureUndirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 22))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// acyclicRMAT is the triangle-counting input at the given scale: a skewed
// RMAT graph, acyclically oriented, adjacency sorted.
func acyclicRMAT(t testing.TB, scale int, seed int64) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(scale, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << scale)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// symmetrizedRMAT is a Graph500 RMAT graph at the given scale with every
// edge's reverse stored.
func symmetrizedRMAT(t testing.TB, scale int, seed int64) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(scale, 16, seed))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << scale)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPageRankCluster: GraphLab uses sockets, so a cluster run's achieved
// bandwidth must not exceed its socket stack's ceiling.
func TestPageRankCluster(t *testing.T) {
	g := fixtureDirected(t)
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 5, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Stats.Report; rep.PeakNetworkBandwidth > cluster.IPoIBSockets().Bandwidth {
		t.Errorf("peak BW %v exceeds socket layer %v", rep.PeakNetworkBandwidth, cluster.IPoIBSockets().Bandwidth)
	}
}

// TestBFSSymmetrizedReadsItsOwnRows: on a graph that stored every edge's
// reverse, BFS gathers through the graph's own rows, not a transpose of
// it — the distances are the reference's, and one run allocates less than
// the graph occupies, which a transpose alone would.
func TestBFSSymmetrizedReadsItsOwnRows(t *testing.T) {
	g := symmetrizedRMAT(t, 12, 24)
	if !g.Symmetrized() {
		t.Fatal("a Symmetrize build does not report Symmetrized")
	}
	want := core.RefBFS(g, 0)
	e := New()
	if _, err := e.BFS(g, core.BFSOptions{Source: 0}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.BFS(g, core.BFSOptions{Source: 0})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("distances differ from reference")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(g.MemoryBytes()) {
		t.Errorf("one BFS allocated %d bytes, the graph is %d: the run copies the graph", alloc, g.MemoryBytes())
	}
}

func TestBFSCluster(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 5)
	res, err := New().BFS(g, core.BFSOptions{Source: 5, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("cluster distances differ from reference")
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}})
	g, _ := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	res, err := New().BFS(g, core.BFSOptions{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, -1, -1}
	if !core.EqualDistances(res.Distances, want) {
		t.Errorf("distances = %v, want %v", res.Distances, want)
	}
}

// TestTriangleLocalAtAnyPoolSize runs the single-node count on pools wider
// than the host on a skewed input: the count is the reference's at every
// size, and under -race the detector watches the per-worker cuckoo sets
// being reset and refilled across the chunks each worker claims.
func TestTriangleLocalAtAnyPoolSize(t *testing.T) {
	g := acyclicRMAT(t, 10, 47)
	want := core.RefTriangleCount(g)
	for _, workers := range []int{1, 4, 8} {
		pool := par.NewPool(workers)
		got := triangleLocal(pool, g)
		pool.Close()
		if got != want {
			t.Errorf("%d workers: count = %d, want %d", workers, got, want)
		}
	}
}

// TestLoweredPageRankMatchesRunLocal: the lowered PageRank (the shared
// backend sweep, run in place) equals the generic GAS runtime running
// pageRankSpec, bit for bit, on pools of 1 and 3 workers: the same
// zero-seeded fold over ascending in-neighbours, the same Apply.
func TestLoweredPageRankMatchesRunLocal(t *testing.T) {
	g := fixtureDirected(t)
	in, outDeg := g.Transpose(), g.OutDegrees()
	opt := core.PageRankOptions{Iterations: 6, RandomJump: 0.3}
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		want := runLocal(pool, g, in, outDeg, pageRankSpec(opt)).vals
		got := pageRankLowered(pool, in, outDeg, opt, nil)
		pool.Close()
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("workers=%d: rank[%d] lowered %v, runLocal %v", workers, v, got[v], want[v])
			}
		}
	}
}

func TestRunLocalQuiescence(t *testing.T) {
	// A program that never changes must stop after one round.
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	in := g.Transpose()
	spec := Spec[int, int]{
		Init:       func(uint32) int { return 0 },
		GatherZero: func() int { return 0 },
		Gather:     func(acc int, _ uint32, _ int, _ int64, _ float32) int { return acc },
		Apply: func(_ uint32, old int, _ int, _ bool) (int, bool, Activation) {
			return old, false, ActivateNone
		},
	}
	pool := par.NewPool(0)
	defer pool.Close()
	res := runLocal(pool, g, in, g.OutDegrees(), spec)
	if res.rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.rounds)
	}
}

// driverRuns runs spec through the pool driver on pools of 1 and 3
// workers and through the node driver on 1 and 4 simulated nodes.
func driverRuns[V, G any](t *testing.T, g, in *graph.CSR, outDeg []int64, spec Spec[V, G]) map[string]runResult[V] {
	t.Helper()
	runs := map[string]runResult[V]{}
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		runs[fmt.Sprintf("pool of %d", workers)] = runLocal(pool, g, in, outDeg, spec)
		pool.Close()
	}
	for _, nodes := range []int{1, 4} {
		c, err := newCluster(cluster.Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		part, err := graph.NewPartition1D(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runCluster(g, in, outDeg, spec, c, part)
		if err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("%d nodes", nodes)] = res
	}
	return runs
}

// sameRuns fails unless every run took the rounds and produced the value
// bits of the pool-of-1 run.
func sameRuns[V any](t *testing.T, algo string, runs map[string]runResult[V], bits func(V) uint64) {
	t.Helper()
	want := runs["pool of 1"]
	for name, got := range runs {
		if got.rounds != want.rounds {
			t.Errorf("%s: %s ran %d rounds, a pool of 1 %d", algo, name, got.rounds, want.rounds)
		}
		for v := range want.vals {
			if bits(got.vals[v]) != bits(want.vals[v]) {
				t.Errorf("%s: vertex %d is %v on %s, %v on a pool of 1", algo, v, got.vals[v], name, want.vals[v])
				break
			}
		}
	}
}

// TestGASDriversAgree: the pool driver and the node driver run the same
// rounds of one engine, so PageRank and BFS values are bit-identical on
// pools of 1 and 3 workers and on 1 and 4 nodes.
func TestGASDriversAgree(t *testing.T) {
	g := symmetrizedRMAT(t, 12, 24)
	in, outDeg := g.Transpose(), g.OutDegrees()
	pr := driverRuns(t, g, in, outDeg, pageRankSpec(core.PageRankOptions{Iterations: 6, RandomJump: 0.3}))
	sameRuns(t, "pagerank", pr, math.Float64bits)
	bfs := driverRuns(t, g, in, outDeg, bfsSpec(0))
	sameRuns(t, "bfs", bfs, func(d int32) uint64 { return uint64(uint32(d)) })
	if r := bfs["pool of 1"].rounds; r < 3 {
		t.Errorf("bfs ran %d rounds: the input does not exercise the active set", r)
	}
}
