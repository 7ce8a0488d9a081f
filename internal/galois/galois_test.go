package galois

import (
	"errors"
	"sync/atomic"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

func fixtureDirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 61))
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
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 62))
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

func fixtureAcyclic(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(8, 8, 63))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureRatings(t testing.TB) *graph.Bipartite {
	t.Helper()
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 64))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestWorklistBasics(t *testing.T) {
	w := &Worklist[int]{}
	if !w.Empty() {
		t.Error("fresh worklist not empty")
	}
	w.Push(1)
	w.Push(2)
	w.PushChunk([]int{3, 4, 5})
	if w.Len() != 5 {
		t.Errorf("Len = %d", w.Len())
	}
	seen := 0
	for {
		chunk, ok := w.pop()
		if !ok {
			break
		}
		seen += len(chunk)
	}
	if seen != 5 {
		t.Errorf("popped %d items", seen)
	}
}

func TestForEachProcessesAllAndPushed(t *testing.T) {
	// Each of 1000 initial items pushes one follow-up; all 2000 must run.
	initial := make([]int, 1000)
	for i := range initial {
		initial[i] = i
	}
	var count int64
	ForEach(initial, func(item int, ctx *Ctx[int]) {
		atomic.AddInt64(&count, 1)
		if item < 1000 {
			ctx.Push(item + 1000)
		}
	})
	if count != 2000 {
		t.Errorf("processed %d items, want 2000", count)
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(nil, func(int, *Ctx[int]) { t.Error("body called on empty input") })
}

func TestForEachBulkRounds(t *testing.T) {
	// Chain of pushes: item k pushes k+1 until 5 → 6 rounds.
	rounds := ForEachBulk([]int{0}, func(item int, push func(int)) {
		if item < 5 {
			push(item + 1)
		}
	})
	if rounds != 6 {
		t.Errorf("rounds = %d, want 6", rounds)
	}
}

func TestIdentity(t *testing.T) {
	e := New()
	if e.Name() != "Galois" {
		t.Errorf("Name = %q", e.Name())
	}
	caps := e.Capabilities()
	if caps.MultiNode {
		t.Error("Galois must be single-node (paper Table 2)")
	}
	if !caps.SGD {
		t.Error("Galois must support SGD (paper §3.2)")
	}
}

func TestSingleNodeOnly(t *testing.T) {
	g := fixtureDirected(t)
	exec := core.Exec{Cluster: &cluster.Config{Nodes: 2}}
	if _, err := New().PageRank(g, core.PageRankOptions{Exec: exec}); !errors.Is(err, core.ErrSingleNodeOnly) {
		t.Errorf("PageRank err = %v", err)
	}
	if _, err := New().BFS(fixtureUndirected(t), core.BFSOptions{Exec: exec}); !errors.Is(err, core.ErrSingleNodeOnly) {
		t.Errorf("BFS err = %v", err)
	}
	if _, err := New().TriangleCount(fixtureAcyclic(t), core.TriangleOptions{Exec: exec}); !errors.Is(err, core.ErrSingleNodeOnly) {
		t.Errorf("TriangleCount err = %v", err)
	}
	if _, err := New().CollabFilter(fixtureRatings(t), core.CFOptions{Exec: exec}); !errors.Is(err, core.ErrSingleNodeOnly) {
		t.Errorf("CollabFilter err = %v", err)
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
}

func TestBFSMatchesReference(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 13)
	res, err := New().BFS(g, core.BFSOptions{Source: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("distances differ from reference")
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

func TestCollabFilterSGDConverges(t *testing.T) {
	bp := fixtureRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD, K: 8, Iterations: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("SGD RMSE not decreasing: %v", res.RMSE)
	}
	if res.RMSE[5] >= res.RMSE[0] {
		t.Errorf("SGD failed to improve: %v", res.RMSE)
	}
}

func TestCollabFilterGDConverges(t *testing.T) {
	bp := fixtureRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{Method: core.GradientDescent, K: 8, Iterations: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("GD RMSE not decreasing: %v", res.RMSE)
	}
}

func TestCollabFilterSGDBeatsGD(t *testing.T) {
	bp := fixtureRatings(t)
	iters := 8
	sgd, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD, K: 8, Iterations: iters, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := New().CollabFilter(bp, core.CFOptions{Method: core.GradientDescent, K: 8, Iterations: iters, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sgd.RMSE[iters-1] >= gd.RMSE[iters-1] {
		t.Errorf("SGD final RMSE %v not below GD %v", sgd.RMSE[iters-1], gd.RMSE[iters-1])
	}
}
