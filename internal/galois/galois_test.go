package galois

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/trace"
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

// TestGaloisSGDMatchesNative: Galois's SGD is Native's — the same
// shuffled W×W block grid, the same diagonal schedule and the same block
// update — so the factors and the RMSE trajectory agree bit for bit, at
// every worker count.
func TestGaloisSGDMatchesNative(t *testing.T) {
	bp := fixtureRatings(t)
	opt := core.CFOptions{Method: core.SGD, K: 8, Iterations: 4, Seed: 7}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 4} {
		runtime.GOMAXPROCS(procs)
		want, err := native.New().CollabFilter(bp, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New().CollabFilter(bp, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name      string
			want, got []float32
		}{{"user", want.UserFactors, got.UserFactors}, {"item", want.ItemFactors, got.ItemFactors}} {
			if !slices.EqualFunc(f.want, f.got, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Errorf("GOMAXPROCS=%d: Galois %s factors differ from Native's", procs, f.name)
			}
		}
		if !slices.EqualFunc(want.RMSE, got.RMSE, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("GOMAXPROCS=%d: Galois RMSE %v, Native %v", procs, got.RMSE, want.RMSE)
		}
	}
}

// TestGaloisKernelsRunOnThePool requires a traced run of every kernel to
// record team dispatches on the pool core.Exec.Local attaches to the
// tracer's registry: PageRank one per iteration, BFS one per round, TC
// one, and CF one per diagonal — iterations × w, so a diagonal's w blocks
// are handed to the team, not run as one task.
func TestGaloisKernelsRunOnThePool(t *testing.T) {
	directed, undirected, acyclic, ratings := fixtureDirected(t), fixtureUndirected(t), fixtureAcyclic(t), fixtureRatings(t)
	const iters, w = 3, 8
	if ratings.NumUsers < w || ratings.NumItems < w {
		t.Fatalf("ratings fixture %d×%d is too small for %d stripes", ratings.NumUsers, ratings.NumItems, w)
	}
	cf := func(m core.CFMethod) func(core.Exec) (int, error) {
		return func(ex core.Exec) (int, error) {
			res, err := New().CollabFilter(ratings, core.CFOptions{Method: m, K: 8, Iterations: iters, Seed: 8, Exec: ex})
			if err != nil {
				return 0, err
			}
			return res.Stats.Iterations * w, nil
		}
	}
	for _, tc := range []struct {
		name string
		run  func(core.Exec) (minDispatches int, err error)
	}{
		{"pagerank", func(ex core.Exec) (int, error) {
			res, err := New().PageRank(directed, core.PageRankOptions{Iterations: iters, Exec: ex})
			if err != nil {
				return 0, err
			}
			return res.Stats.Iterations, nil
		}},
		{"bfs", func(ex core.Exec) (int, error) {
			res, err := New().BFS(undirected, core.BFSOptions{Source: 13, Exec: ex})
			if err != nil {
				return 0, err
			}
			return res.Stats.Iterations, nil
		}},
		{"tc", func(ex core.Exec) (int, error) {
			_, err := New().TriangleCount(acyclic, core.TriangleOptions{Exec: ex})
			return 1, err
		}},
		{"cf-sgd", cf(core.SGD)},
		{"cf-gd", cf(core.GradientDescent)},
	} {
		tr := trace.New()
		want, err := tc.run(core.Exec{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tr.Registry().HistSnapshots()["backend.pool.dispatch_ns"].Count; got < int64(want) || want < 1 {
			t.Errorf("%s: %d pool dispatches recorded, want at least %d", tc.name, got, want)
		}
	}
}
