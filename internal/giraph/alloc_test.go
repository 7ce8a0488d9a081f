package giraph

import (
	goruntime "runtime"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// allocSink keeps the model replay's allocations from being optimized
// away.
var allocSink any

// allocatedBytes reports the bytes f allocates, counted from a collected
// heap.
func allocatedBytes(f func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	f()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTCAllocatesTheModelsMessagesAndBoundedStaging bounds what one
// triangle-counting call allocates by what the model charges plus a
// staging term. The model's bytes are measured by replaying exactly its
// allocations: one copy of the sender's adjacency list and one interface
// box per message. The staging term — envelope blocks, the flat inbox, the
// boxed vertex values and per-vertex arrays — may grow with the message
// and vertex counts but not with the number of phases or slots: 48 bytes a
// message (a 24-byte envelope, a 16-byte inbox entry and block slack) and
// 64 a vertex. Regrowing each slot's sends from nil in every phase and a
// fresh inbox per delivery put the staging at about 26 MB on the scale-15
// input, twice this bound. testing.Short() scales the graph down.
func TestTCAllocatesTheModelsMessagesAndBoundedStaging(t *testing.T) {
	scale := 15
	if testing.Short() {
		scale = 13
	}
	edges, err := gen.RMAT(gen.TriangleConfig(scale, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	g, err := datasets.PrepareEdges(1<<scale, edges, datasets.PrepTriangle)
	if err != nil {
		t.Fatal(err)
	}
	model := allocatedBytes(func() {
		for v := uint32(0); v < g.NumVertices; v++ {
			adj := g.Neighbors(v)
			for range adj {
				allocSink = append([]uint32(nil), adj...)
			}
		}
	})
	allocSink = nil
	msgs, n := uint64(g.NumEdges()), uint64(g.NumVertices)
	bound := model + 48*msgs + 64*n + 1<<20
	var count int64
	got := allocatedBytes(func() {
		res, err := New().TriangleCount(g, core.TriangleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		count = res.Count
	})
	if want := core.RefTriangleCount(g); count != want {
		t.Fatalf("triangles = %d, want %d", count, want)
	}
	if got > bound {
		t.Errorf("one call allocated %.1f MB, want at most %.1f MB: the model's %.1f MB for %d messages, plus 48 B a message and 64 B a vertex of staging",
			float64(got)/1e6, float64(bound)/1e6, float64(model)/1e6, msgs)
	}
	t.Logf("%d messages, %d vertices: model %.1f MB, call %.1f MB, staging %.1f B a message",
		msgs, n, float64(model)/1e6, float64(got)/1e6, float64(got-min(got, model))/float64(msgs))
}

// TestLoweringAllocationsDoNotGrowWithN: a lowered PageRank or BFS call
// hands its typed vector back unboxed, so the number of allocations a call
// makes is the same at 2^10 and 2^14 vertices, up to a small slack for the
// pool and tracer. Boxing every vertex's value into a []any made one
// allocation per vertex.
func TestLoweringAllocationsDoNotGrowWithN(t *testing.T) {
	build := func(scale int, prep datasets.Prep) *graph.CSR {
		edges, err := gen.RMAT(gen.Graph500Config(scale, 8, 17))
		if err != nil {
			t.Fatal(err)
		}
		g, err := datasets.PrepareEdges(1<<scale, edges, prep)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	calls := map[string]func(g *graph.CSR){
		"pagerank": func(g *graph.CSR) {
			if _, err := New().PageRank(g, core.PageRankOptions{Iterations: 3}); err != nil {
				t.Fatal(err)
			}
		},
		"bfs": func(g *graph.CSR) {
			if _, err := New().BFS(g, core.BFSOptions{Source: 0}); err != nil {
				t.Fatal(err)
			}
		},
	}
	preps := map[string]datasets.Prep{"pagerank": datasets.PrepPageRank, "bfs": datasets.PrepBFS}
	const slack = 64
	for name, call := range calls {
		small, large := build(10, preps[name]), build(14, preps[name])
		allocs := func(g *graph.CSR) float64 { return testing.AllocsPerRun(3, func() { call(g) }) }
		a, b := allocs(small), allocs(large)
		if b > a+slack {
			t.Errorf("%s: %v allocations a call at n = %d, %v at n = %d: want no more than %d apart",
				name, a, small.NumVertices, b, large.NumVertices, slack)
		}
		t.Logf("%s: %v allocations at n = %d, %v at n = %d", name, a, small.NumVertices, b, large.NumVertices)
	}
}
