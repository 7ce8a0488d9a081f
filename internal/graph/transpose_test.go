package graph_test

// Differential and allocation tests of the parallel transpose against the
// serial oracle. External test package so the RMAT generator is usable
// without an import cycle.

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// rmatScale is the scale of the RMAT fixtures: 16, or 14 under -short,
// which still leaves every fixture above the serial cutover.
func rmatScale() int {
	if testing.Short() {
		return 14
	}
	return 16
}

func rmatEdges(t *testing.T) []graph.Edge {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(rmatScale(), 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func build(t *testing.T, n uint32, edges []graph.Edge, o graph.Orientation) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: o, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// transposeFixtures returns CSRs above the transpose's serial cutover of
// 2^16 edges and with at least 4 edges per target, so up to 4 workers
// share each pass; each is built to stress one part of it.
func transposeFixtures(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	must := func(g *graph.CSR, err error) *graph.CSR {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rmat := rmatEdges(t)
	n := uint32(1) << rmatScale()
	r := rand.New(rand.NewSource(11))
	const m = 1 << 17
	weighted := make([]graph.WeightedEdge, m)
	for i := range weighted {
		weighted[i] = graph.WeightedEdge{Src: uint32(r.Intn(1 << 14)), Dst: uint32(r.Intn(1 << 14)), Weight: r.Float32()}
	}
	ratings := make([]graph.WeightedEdge, m)
	for i := range ratings {
		ratings[i] = graph.WeightedEdge{Src: uint32(r.Intn(3000)), Dst: uint32(r.Intn(700)), Weight: float32(1 + r.Intn(5))}
	}
	bip, err := graph.NewBipartite(3000, 700, ratings)
	if err != nil {
		t.Fatal(err)
	}
	// Only multiples of 7 below 2^15 carry edges, out of 2^16 vertices:
	// empty rows, empty in-lists and a long empty tail.
	sparse := make([]graph.Edge, 3*m)
	for i := range sparse {
		sparse[i] = graph.Edge{Src: uint32(7 * r.Intn(1<<15/7)), Dst: uint32(7 * r.Intn(1<<15/7))}
	}
	// No dedup: 256 vertices, so most edges repeat.
	dups := make([]graph.Edge, m)
	for i := range dups {
		dups[i] = graph.Edge{Src: uint32(r.Intn(256)), Dst: uint32(r.Intn(256))}
	}
	// Nine edges in ten into one target, and (separately) out of one
	// source, whose range leaves the later edge-balanced splits empty.
	hotDst := make([]graph.Edge, m)
	hotSrc := make([]graph.Edge, m)
	for i := range hotDst {
		a, b := uint32(r.Intn(1<<15)), uint32(r.Intn(1<<15))
		if r.Intn(10) != 0 {
			hotDst[i] = graph.Edge{Src: a, Dst: 5}
			hotSrc[i] = graph.Edge{Src: 5, Dst: b}
		} else {
			hotDst[i] = graph.Edge{Src: a, Dst: b}
			hotSrc[i] = graph.Edge{Src: a, Dst: b}
		}
	}
	return map[string]*graph.CSR{
		"rmat-directed":  build(t, n, rmat, graph.KeepDirection),
		"rmat-symmetric": build(t, n, rmat, graph.Symmetrize),
		"rmat-raw":       must(graph.FromWeightedEdges(n, weightedFrom(rmat))),
		"weighted":       must(graph.FromWeightedEdges(1<<14, weighted)),
		"bipartite-user": bip.ByUser,
		"bipartite-item": bip.ByItem,
		"isolated":       build(t, 1<<16, sparse, graph.KeepDirection),
		"duplicates":     must(graph.FromEdges(256, dups)),
		"hot-target":     must(graph.FromEdges(1<<15, hotDst)),
		"hot-source":     must(graph.FromEdges(1<<15, hotSrc)),
	}
}

// weightedFrom gives every edge a distinct weight, so a weight that
// travels with the wrong edge shows. Built without dedup, the raw edges
// keep their duplicates, self-loops and unsorted adjacency.
func weightedFrom(edges []graph.Edge) []graph.WeightedEdge {
	out := make([]graph.WeightedEdge, len(edges))
	for i, e := range edges {
		out[i] = graph.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: float32(i)}
	}
	return out
}

// sameCSR reports the first field in which two CSRs differ, or "".
func sameCSR(got, want *graph.CSR) string {
	switch {
	case got.NumVertices != want.NumVertices:
		return "NumVertices"
	case got.TargetSpace() != want.TargetSpace():
		return "TargetSpace"
	case !slices.Equal(got.Offsets, want.Offsets):
		return "Offsets"
	case !slices.Equal(got.Targets, want.Targets):
		return "Targets"
	case (got.Weights == nil) != (want.Weights == nil) || !slices.Equal(got.Weights, want.Weights):
		return "Weights"
	case got.SortedAdjacency() != want.SortedAdjacency():
		return "SortedAdjacency"
	case got.Symmetrized() != want.Symmetrized():
		return "Symmetrized"
	}
	return ""
}

// TestTransposeMatchesSerial: at 1, 3 and 4 procs the parallel transpose
// gives the serial pass's arrays for every fixture, and Symmetric, which
// compares a graph with its transpose, answers as the serial pass would.
// In gives them too, and is the graph itself only for the Symmetrize build.
func TestTransposeMatchesSerial(t *testing.T) {
	fixtures := transposeFixtures(t)
	want := map[string]*graph.CSR{}
	for name, g := range fixtures {
		if g.NumEdges() < 1<<16 || g.NumEdges() < 4*int64(g.TargetSpace()) {
			t.Fatalf("%s: %d edges over %d targets, too few to run 4 workers", name, g.NumEdges(), g.TargetSpace())
		}
		want[name] = graph.TransposeSerial(g)
	}
	if !fixtures["rmat-symmetric"].Symmetric() {
		t.Error("a symmetrized build does not report Symmetric")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 4} {
		runtime.GOMAXPROCS(procs)
		for name, g := range fixtures {
			if field := sameCSR(g.Transpose(), want[name]); field != "" {
				t.Errorf("GOMAXPROCS=%d %s: transpose %s differs from the serial pass", procs, name, field)
			}
			w := want[name]
			sym := g.SortedAdjacency() && g.TargetSpace() == g.NumVertices &&
				slices.Equal(g.Offsets, w.Offsets) && slices.Equal(g.Targets, w.Targets)
			if got := g.Symmetric(); got != sym {
				t.Errorf("GOMAXPROCS=%d %s: Symmetric() = %v, serial pass says %v", procs, name, got, sym)
			}
			in := g.In()
			if field := sameCSR(in, w); field != "" {
				t.Errorf("GOMAXPROCS=%d %s: In() %s differs from the serial transpose", procs, name, field)
			}
			if (in == g) != (name == "rmat-symmetric") {
				t.Errorf("GOMAXPROCS=%d %s: In() returns the graph itself: %v", procs, name, in == g)
			}
		}
	}
}

// TestTransposeAllocatesNoMoreThanSerial: at two workers the per-worker
// uint32 positions take the bytes of the serial pass's one int64 cursor
// per target. What remains is the per-call pool, its splits and closures:
// a constant, allowed as transposeFixedBytes. Per-worker int64 counters
// would add 8 bytes per target (512 KiB at scale 16, 128 KiB at 14).
func TestTransposeAllocatesNoMoreThanSerial(t *testing.T) {
	const transposeFixedBytes = 4 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := build(t, uint32(1)<<rmatScale(), rmatEdges(t), graph.KeepDirection)
	allocated := func(f func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	serial := allocated(func() { graph.TransposeSerial(g) })
	parallel := allocated(func() { g.Transpose() })
	if parallel > serial+transposeFixedBytes {
		t.Errorf("Transpose allocated %d bytes at 2 workers, the serial pass %d (+%d allowed)", parallel, serial, transposeFixedBytes)
	}
	t.Logf("Transpose %d bytes, serial pass %d", parallel, serial)
}
