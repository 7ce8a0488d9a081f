package graphlab

import (
	"errors"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
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

func fixtureAcyclic(t testing.TB) *graph.CSR { return acyclicRMAT(t, 8, 23) }

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

func fixtureRatings(t testing.TB) *graph.Bipartite {
	t.Helper()
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 24))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestIdentity(t *testing.T) {
	e := New()
	if e.Name() != "GraphLab" {
		t.Errorf("Name = %q", e.Name())
	}
	caps := e.Capabilities()
	if !caps.MultiNode || caps.SGD || caps.ProgrammingModel != "vertex" {
		t.Errorf("capabilities = %+v", caps)
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := fixtureDirected(t)
	opt := core.PageRankOptions{Iterations: 7}
	want := core.RefPageRank(g, opt)
	res, err := New().PageRank(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.ComparePageRank(want, res.Ranks); d > 1e-9 {
		t.Errorf("max relative diff %v", d)
	}
	if res.Stats.Iterations != 7 {
		t.Errorf("rounds = %d", res.Stats.Iterations)
	}
}

func TestPageRankCluster(t *testing.T) {
	g := fixtureDirected(t)
	opt := core.PageRankOptions{Iterations: 5, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}}
	want := core.RefPageRank(g, core.PageRankOptions{Iterations: 5})
	res, err := New().PageRank(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.ComparePageRank(want, res.Ranks); d > 1e-9 {
		t.Errorf("max relative diff %v", d)
	}
	rep := res.Stats.Report
	if rep.BytesSent == 0 {
		t.Error("no traffic recorded")
	}
	// GraphLab uses sockets: achieved bandwidth must not exceed its
	// socket stack's ceiling.
	if rep.PeakNetworkBandwidth > cluster.IPoIBSockets().Bandwidth {
		t.Errorf("peak BW %v exceeds socket layer %v", rep.PeakNetworkBandwidth, cluster.IPoIBSockets().Bandwidth)
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 5)
	res, err := New().BFS(g, core.BFSOptions{Source: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("distances differ from reference")
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

func TestTriangleCountMatchesReference(t *testing.T) {
	g := fixtureAcyclic(t)
	want := core.RefTriangleCount(g)
	res, err := New().TriangleCount(g, core.TriangleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
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
		pool := backend.NewPool(workers)
		got := triangleLocal(pool, g)
		pool.Close()
		if got != want {
			t.Errorf("%d workers: count = %d, want %d", workers, got, want)
		}
	}
}

func TestTriangleCluster(t *testing.T) {
	g := fixtureAcyclic(t)
	want := core.RefTriangleCount(g)
	res, err := New().TriangleCount(g, core.TriangleOptions{Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("cluster count = %d, want %d", res.Count, want)
	}
	if res.Stats.Report.BytesSent == 0 {
		t.Error("no adjacency-shipping traffic recorded")
	}
}

func TestCollabFilterGD(t *testing.T) {
	bp := fixtureRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{K: 8, Iterations: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RMSE) != 5 {
		t.Fatalf("RMSE entries = %d", len(res.RMSE))
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("GD RMSE not decreasing: %v", res.RMSE)
	}
}

func TestCollabFilterMatchesNativeGDTrajectory(t *testing.T) {
	// Same update rule, same seed → same trajectory as the serial
	// reference (modulo float ordering).
	bp := fixtureRatings(t)
	opt := core.CFOptions{K: 4, Iterations: 3, Seed: 11}
	ref := core.RefCollabFilterGD(bp, opt)
	res, err := New().CollabFilter(bp, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.RMSE {
		diff := ref.RMSE[i] - res.RMSE[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-3 {
			t.Errorf("iteration %d: RMSE %v vs reference %v", i, res.RMSE[i], ref.RMSE[i])
		}
	}
}

func TestCollabFilterRejectsSGD(t *testing.T) {
	bp := fixtureRatings(t)
	_, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD})
	if !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestCollabFilterCluster(t *testing.T) {
	bp := fixtureRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{K: 8, Iterations: 3, Seed: 9,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("distributed GD RMSE not decreasing: %v", res.RMSE)
	}
	if res.Stats.Report.BytesSent == 0 {
		t.Error("no factor traffic recorded")
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
	pool := backend.NewPool(0)
	defer pool.Close()
	res := runLocal(pool, g, in, g.OutDegrees(), spec)
	if res.rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.rounds)
	}
}
