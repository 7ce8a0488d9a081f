package native

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// Skewed kernel benchmarks: the same native kernels under static
// equal-vertex chunking (the preserved references in sched_test.go) and
// under the scheduling layer's dynamic / edge-balanced loops, over RMAT
// graphs WITHOUT vertex permutation — natural RMAT labeling concentrates
// the hubs at low ids, which is exactly the input that strands one static
// chunk with most of the work (paper §3.1). Run via `go test -bench
// Skewed`; GRAPHMAZE_SKEW_SCALE overrides the graph scale (default 16).

func skewScale(b *testing.B) int {
	s := os.Getenv("GRAPHMAZE_SKEW_SCALE")
	if s == "" {
		return 16
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 4 || v > 26 {
		b.Fatalf("GRAPHMAZE_SKEW_SCALE=%q: want an integer in [4,26]", s)
	}
	return v
}

var skewGraphs struct {
	mu       sync.Mutex
	triangle *graph.CSR
	directed *graph.CSR
}

func skewTriangleGraph(b *testing.B) *graph.CSR {
	skewGraphs.mu.Lock()
	defer skewGraphs.mu.Unlock()
	if skewGraphs.triangle == nil {
		scale := skewScale(b)
		cfg := gen.TriangleConfig(scale, 8, 7)
		cfg.PermuteVertices = false // keep hubs contiguous at low ids
		edges, err := gen.RMAT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bld := graph.NewBuilder(1 << scale)
		bld.AddEdges(edges)
		g, err := bld.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
		if err != nil {
			b.Fatal(err)
		}
		skewGraphs.triangle = g
	}
	return skewGraphs.triangle
}

func skewDirectedGraph(b *testing.B) *graph.CSR {
	skewGraphs.mu.Lock()
	defer skewGraphs.mu.Unlock()
	if skewGraphs.directed == nil {
		scale := skewScale(b)
		cfg := gen.Graph500Config(scale, 16, 7)
		cfg.PermuteVertices = false // keep hubs contiguous at low ids
		edges, err := gen.RMAT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bld := graph.NewBuilder(1 << scale)
		bld.AddEdges(edges)
		g, err := bld.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
		if err != nil {
			b.Fatal(err)
		}
		skewGraphs.directed = g
	}
	return skewGraphs.directed
}

func BenchmarkNativeTriangleSkewed(b *testing.B) {
	g := skewTriangleGraph(b)
	e := New()
	b.Run("static", func(b *testing.B) {
		b.ReportMetric(float64(g.NumEdges()), "edges")
		for i := 0; i < b.N; i++ {
			triangleLocalStatic(e, g)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		b.ReportMetric(float64(g.NumEdges()), "edges")
		for i := 0; i < b.N; i++ {
			if _, err := e.TriangleCount(g, core.TriangleOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNativePageRankSkewed(b *testing.B) {
	g := skewDirectedGraph(b)
	e := New()
	opt := core.PageRankOptions{Iterations: 5, RandomJump: 0.15}
	b.Run("static", func(b *testing.B) {
		b.ReportMetric(float64(g.NumEdges()), "edges")
		for i := 0; i < b.N; i++ {
			pageRankLocalStatic(e, g, opt)
		}
	})
	b.Run("edgebalanced", func(b *testing.B) {
		b.ReportMetric(float64(g.NumEdges()), "edges")
		for i := 0; i < b.N; i++ {
			if _, err := e.PageRank(g, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
