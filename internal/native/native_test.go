package native

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphmaze/internal/codec"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// testGraphDirected builds a small RMAT graph for PageRank (directed).
func testGraphDirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(9, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 9)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testGraphUndirected builds a symmetrized graph for BFS.
func testGraphUndirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(9, 8, 43))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 9)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testGraphAcyclic builds an acyclically oriented graph for TC.
func testGraphAcyclic(t testing.TB) *graph.CSR {
	t.Helper()
	return testTriangleGraph(t, graph.OrientAcyclic)
}

// testTriangleGraph builds the TC fixture's edge list under the given
// orientation (acyclic for the engine, symmetrized for the served entry
// point).
func testTriangleGraph(t testing.TB, orientation graph.Orientation) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(9, 8, 44))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 9)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: orientation, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testRatings(t testing.TB) *graph.Bipartite {
	t.Helper()
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(9, 16, 45))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// The reference tests below run the zero Tuning, every optimisation off,
// on the paths that read it; the default tuning's cells, and the one-node
// PageRank and BFS, which always run optimized, are in the root
// TestEnginesMatchReference.

// TestPageRankIntoResumesBitForBit: a fixed-sweeps run resumed from the
// ranks of a shorter one ends on the cold run's bits, for every split of
// the sweeps, on pools of 1 and 3 workers; and the cold run's in-place
// loop ends on the bits of the out-of-place swap it replaced.
func TestPageRankIntoResumesBitForBit(t *testing.T) {
	g := testGraphDirected(t)
	in, deg := backend.FromCSR(g.Transpose()), g.OutDegrees()
	n := int(g.NumVertices)
	const sweeps, jump = 12, 0.3
	same := func(a, b []float64) bool {
		for v := range a {
			if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		pr, next := make([]float64, n), make([]float64, n)
		for v := range pr {
			pr[v] = 1
		}
		swap := backend.NewPageRankSweep(pool, in, deg, 1-jump, jump, 1, make([]float64, n))
		for i := 0; i < sweeps; i++ {
			swap.Run(next, pr)
			pr, next = next, pr
		}
		cold, ran := PageRankInto(pool, in, deg, jump, 0, sweeps, 0, nil, make([]float64, n), nil, make([]float64, n))
		if ran != sweeps || !same(cold, pr) {
			t.Fatalf("workers=%d: the in-place run (%d sweeps) differs from the out-of-place swap", workers, ran)
		}
		for done := 1; done <= sweeps; done++ {
			part, _ := PageRankInto(pool, in, deg, jump, 0, done, 0, nil, make([]float64, n), nil, make([]float64, n))
			ranks, total := PageRankInto(pool, in, deg, jump, 0, sweeps, done, nil, part, nil, make([]float64, n))
			if total != sweeps || !same(ranks, cold) {
				t.Errorf("workers=%d: resumed after %d sweeps, ran to %d and differs from the cold run", workers, done, total)
			}
		}
		pool.Close()
	}
}

func TestPageRankClusterMatchesReference(t *testing.T) {
	g := testGraphDirected(t)
	res, err := NewTuned(Tuning{}).PageRank(g, core.PageRankOptions{Iterations: 6,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed messages carry float64 contributions: the reference's
	// bound, not the compressed float32 one.
	if d := core.ComparePageRank(core.RefPageRank(g, core.PageRankOptions{Iterations: 6}), res.Ranks); d > 1e-9 {
		t.Errorf("max relative diff %v", d)
	}
	if !res.Stats.Simulated || res.Stats.Report.BytesSent == 0 {
		t.Errorf("cluster run: simulated %v, %d bytes sent", res.Stats.Simulated, res.Stats.Report.BytesSent)
	}
}

func TestPageRankCompressionReducesTraffic(t *testing.T) {
	if !New().tuning.Compression {
		t.Error("default tuning should enable compression")
	}
	g := testGraphDirected(t)
	run := func(compress bool) int64 {
		tn := DefaultTuning()
		tn.Compression = compress
		res, err := NewTuned(tn).PageRank(g, core.PageRankOptions{Iterations: 4,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Report.BytesSent
	}
	raw, compressed := run(false), run(true)
	if compressed >= raw {
		t.Errorf("compression did not reduce traffic: %d vs %d", compressed, raw)
	}
	// Paper reports ≈2.2× for PageRank.
	if ratio := float64(raw) / float64(compressed); ratio < 1.5 {
		t.Errorf("compression ratio %.2f below expected ≥1.5", ratio)
	}
}

// directedRMAT builds a directed RMAT with edge factor 8 (the served
// graphs' shape) and returns it with its highest-out-degree vertex.
func directedRMAT(t *testing.T, scale int, seed int64) (*graph.CSR, uint32) {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(scale, 8, seed))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << scale)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	var hub uint32
	for v := uint32(0); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return g, hub
}

// countWrong reports how many distances differ from the reference.
func countWrong(got, want []int32) int {
	wrong := 0
	for v := range want {
		if got[v] != want[v] {
			wrong++
		}
	}
	return wrong
}

// TestBFSDirectedAboveSerialCutover: above the backend's serial cutover
// (2^19 edges) the traversal switches to bottom-up levels on dense
// frontiers, and those must find a vertex's parents among its in-edges.
// On a directed scale-17 RMAT (about a million edges) BFS with the
// transpose as its in-edge matrix must equal the serial out-edge
// reference at one and two workers. Reading a vertex's out-edges as its
// parents, which is only right on a symmetric graph, misplaces tens of
// thousands of vertices here.
func TestBFSDirectedAboveSerialCutover(t *testing.T) {
	g, source := directedRMAT(t, 17, 3)
	if g.NumEdges() <= 1<<19 {
		t.Fatalf("fixture: %d edges do not clear the serial cutover", g.NumEdges())
	}
	want := core.RefBFS(g, source)
	out, in := backend.FromCSR(g), backend.FromCSR(g.Transpose())
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		pool := par.NewPool(0)
		got, _ := BFS(pool, out, in, source, "native.bfs.level", nil)
		pool.Close()
		runtime.GOMAXPROCS(prev)
		if wrong := countWrong(got, want); wrong > 0 {
			t.Errorf("GOMAXPROCS=%d: %d of %d distances differ from the serial out-edge BFS", procs, wrong, len(want))
		}
	}
}

// TestEngineBFSDirected: the engine's BFS takes any graph it is handed
// and may pull only through a real in-edge matrix, which a directed
// graph's rows are not. On directed RMATs it must equal the serial
// out-edge BFS at scale 16 (the served web's size, under the 2^19-edge
// cutover) and at scale 17, above it, where reading the graph's own rows
// as parents misplaces tens of thousands of vertices.
func TestEngineBFSDirected(t *testing.T) {
	for _, scale := range []int{16, 17} {
		g, source := directedRMAT(t, scale, 3)
		res, err := New().BFS(g, core.BFSOptions{Source: source})
		if err != nil {
			t.Fatal(err)
		}
		if wrong := countWrong(res.Distances, core.RefBFS(g, source)); wrong > 0 {
			t.Errorf("scale %d (%d edges): %d of %d distances differ from the serial out-edge BFS",
				scale, g.NumEdges(), wrong, g.NumVertices)
		}
	}
}

func TestBFSClusterMatchesReference(t *testing.T) {
	g := testGraphUndirected(t)
	want := core.RefBFS(g, 3)
	for _, nodes := range []int{1, 2, 5} {
		res, err := New().BFS(g, core.BFSOptions{Source: 3,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: nodes}}})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !core.EqualDistances(want, res.Distances) {
			t.Errorf("nodes=%d: distances differ from reference", nodes)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	// Two components: 0-1, 2-3.
	b := graph.NewBuilder(4)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().BFS(g, core.BFSOptions{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, -1, -1}
	if !core.EqualDistances(res.Distances, want) {
		t.Errorf("distances = %v, want %v", res.Distances, want)
	}
}

func TestBFSSourceValidation(t *testing.T) {
	g := testGraphUndirected(t)
	if _, err := New().BFS(g, core.BFSOptions{Source: 1 << 20}); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	g := testGraphAcyclic(t)
	want := core.RefTriangleCount(g)
	if want == 0 {
		t.Fatal("fixture has no triangles; choose a different seed")
	}
	res, err := NewTuned(Tuning{}).TriangleCount(g, core.TriangleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
	// The symmetrized-input entry point counts the same triangles on the
	// same edge list.
	pool := par.NewPool(0)
	defer pool.Close()
	if got := TriangleCountSymmetrized(pool, testTriangleGraph(t, graph.Symmetrize)); got != want {
		t.Errorf("TriangleCountSymmetrized = %d, oriented count %d", got, want)
	}
}

func TestTriangleCountClusterMatchesReference(t *testing.T) {
	g := testGraphAcyclic(t)
	want := core.RefTriangleCount(g)
	for _, nodes := range []int{1, 3} {
		res, err := New().TriangleCount(g, core.TriangleOptions{
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: nodes}}})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if res.Count != want {
			t.Errorf("nodes=%d: count = %d, want %d", nodes, res.Count, want)
		}
	}
}

func TestTriangleRequiresSortedAdjacency(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 1}})
	if _, err := New().TriangleCount(g, core.TriangleOptions{}); err == nil {
		t.Error("accepted unsorted adjacency")
	}
}

func TestCFSGDConverges(t *testing.T) {
	bp := testRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD, K: 8, Iterations: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RMSE) != 6 {
		t.Fatalf("RMSE entries = %d", len(res.RMSE))
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("SGD RMSE not decreasing: %v", res.RMSE)
	}
	if res.RMSE[5] >= res.RMSE[0] {
		t.Errorf("SGD failed to improve: %v", res.RMSE)
	}
}

func TestCFGDConverges(t *testing.T) {
	bp := testRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{Method: core.GradientDescent, K: 8, Iterations: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("GD RMSE not decreasing: %v", res.RMSE)
	}
}

func TestCFSGDBeatsGDPerIteration(t *testing.T) {
	// The paper: SGD converges in ~40× fewer iterations than GD. At our
	// scale just assert SGD reaches a lower RMSE in the same iterations.
	bp := testRatings(t)
	iters := 8
	sgd, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD, K: 8, Iterations: iters, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gd, err := New().CollabFilter(bp, core.CFOptions{Method: core.GradientDescent, K: 8, Iterations: iters, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sgd.RMSE[iters-1] >= gd.RMSE[iters-1] {
		t.Errorf("SGD RMSE %v not below GD RMSE %v", sgd.RMSE[iters-1], gd.RMSE[iters-1])
	}
}

func TestCFClusterGD(t *testing.T) {
	bp := testRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{Method: core.GradientDescent, K: 8, Iterations: 4, Seed: 3,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("distributed GD RMSE not decreasing: %v", res.RMSE)
	}
	if res.Stats.Report.BytesSent == 0 {
		t.Error("distributed GD reported no traffic")
	}
}

func TestStripeCodecRoundTrip(t *testing.T) {
	k := 4
	itemF := make([]float32, 10*k)
	for i := range itemF {
		itemF[i] = float32(i) * 0.5
	}
	payload := encodeStripe(2, 7, itemF, k)
	decoded := make([]float32, len(itemF))
	if err := decodeStripe(payload, decoded, k); err != nil {
		t.Fatal(err)
	}
	for i := 2 * k; i < 7*k; i++ {
		if decoded[i] != itemF[i] {
			t.Fatalf("decoded[%d] = %v, want %v", i, decoded[i], itemF[i])
		}
	}
	if err := decodeStripe([]byte{1, 2, 3}, decoded, k); err == nil {
		t.Error("decoded truncated stripe")
	}
}

func TestPRMessageCodecRoundTrip(t *testing.T) {
	contrib := []float64{0.5, 1.5, 2.5, 3.5}
	ids := []uint32{1, 3}
	for _, compress := range []bool{false, true} {
		e := NewTuned(Tuning{Compression: compress})
		var idBytes []byte
		if compress {
			var err error
			idBytes, err = codec.EncodeIDsAuto(ids, 4)
			if err != nil {
				t.Fatal(err)
			}
		}
		payload, err := e.encodePRMessage(ids, idBytes, contrib)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 4)
		if err := e.applyPRMessage(payload, out); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if math.Abs(out[id]-contrib[id]) > 1e-6 {
				t.Errorf("compress=%v: out[%d] = %v, want %v", compress, id, out[id], contrib[id])
			}
		}
	}
	e := New()
	if err := e.applyPRMessage([]byte{1}, nil); err == nil {
		t.Error("applied truncated message")
	}
}

// degreeFixture is an edge list whose acyclic orientation has rows of
// out-degree exactly 1, 2, 3, 63, 64 and 65 (each a vertex fanning out
// to a path of neighbours with random chords), plus a hub row of 2000
// over a random graph, so that every bit-vector row size the kernel
// meets — the smallest, the word boundary, a whole hub — closes
// triangles.
func degreeFixture(t testing.TB, orientation graph.Orientation) (*graph.CSR, []int) {
	t.Helper()
	const n = 4096
	r := rand.New(rand.NewSource(46))
	var edges []graph.Edge
	for v := uint32(1); v <= 2000; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v})
	}
	for i := 0; i < 8000; i++ {
		edges = append(edges, graph.Edge{Src: 1 + uint32(r.Intn(2000)), Dst: 1 + uint32(r.Intn(2000))})
	}
	degrees := []int{1, 2, 3, 63, 64, 65}
	c := uint32(2100)
	for _, d := range degrees {
		for i := uint32(1); i <= uint32(d); i++ {
			edges = append(edges, graph.Edge{Src: c, Dst: c + i})
			if i < uint32(d) {
				edges = append(edges, graph.Edge{Src: c + i, Dst: c + i + 1})
			}
			if j := 1 + uint32(r.Intn(d)); j != i {
				edges = append(edges, graph.Edge{Src: c + i, Dst: c + j})
			}
		}
		c += uint32(d) + 2
	}
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: orientation, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g, append(degrees, 2000)
}

// TestTriangleCountEveryRowSize: the bit-vector kernel, which serves every
// row of two or more neighbours, and the merge ablation equal the serial
// reference on rows of out-degree 1, 2, 3, 63, 64, 65 and a hub, on pools
// of 1, 2 and 8 workers, through the engine's oriented entry point and the
// served symmetrized one.
func TestTriangleCountEveryRowSize(t *testing.T) {
	g, degrees := degreeFixture(t, graph.OrientAcyclic)
	for _, d := range degrees {
		found := false
		for v := uint32(0); v < g.NumVertices && !found; v++ {
			found = g.Degree(v) == int64(d)
		}
		if !found {
			t.Fatalf("fixture has no row of out-degree %d", d)
		}
	}
	want := core.RefTriangleCount(g)
	if want == 0 {
		t.Fatal("fixture has no triangles")
	}
	sym, _ := degreeFixture(t, graph.Symmetrize)
	for _, workers := range []int{1, 2, 8} {
		pool := par.NewPool(workers)
		for _, bitv := range []bool{true, false} {
			if got := triangles(pool, g, g.Offsets, bitv); got != want {
				t.Errorf("workers=%d bitvector=%v: count %d, want %d", workers, bitv, got, want)
			}
		}
		if got := TriangleCountSymmetrized(pool, sym); got != want {
			t.Errorf("workers=%d: TriangleCountSymmetrized = %d, want %d", workers, got, want)
		}
		pool.Close()
	}
	for _, tuned := range []Tuning{DefaultTuning(), {}} {
		res, err := NewTuned(tuned).TriangleCount(g, core.TriangleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Errorf("tuning %+v: count %d, want %d", tuned, res.Count, want)
		}
	}
}
