package combblas

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
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 41))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureUndirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureAcyclic(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(8, 8, 43))
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
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 44))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestSpMVMatchesDense(t *testing.T) {
	// 3×3 pattern matrix: rows {0:[1,2], 1:[2], 2:[]}.
	m := &SpMat[struct{}]{
		NumRows: 3, NumCols: 3,
		Offsets: []int64{0, 2, 3, 3},
		Cols:    []uint32{1, 2, 2},
		Vals:    make([]struct{}, 3),
	}
	x := []float64{10, 20, 30}
	y, err := SpMV(m, x, PlusTimesF64())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 30, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSpMVShapeError(t *testing.T) {
	m := &SpMat[struct{}]{NumRows: 2, NumCols: 3, Offsets: []int64{0, 0, 0}}
	if _, err := SpMV(m, []float64{1}, PlusTimesF64()); err == nil {
		t.Error("accepted mis-sized vector")
	}
}

func TestTranspose(t *testing.T) {
	g := fixtureDirected(t)
	m := FromGraph(g)
	mt := m.Transpose()
	if mt.NNZ() != m.NNZ() {
		t.Fatalf("transpose nnz %d != %d", mt.NNZ(), m.NNZ())
	}
	// Spot-check: every edge (r,c) appears as (c,r).
	cols, _ := m.Row(0)
	for _, c := range cols {
		tCols, _ := mt.Row(c)
		found := false
		for _, tc := range tCols {
			if tc == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge (0,%d) missing from transpose", c)
		}
	}
}

// testPools returns the pool sizes the pool-taking primitives are checked
// at — serial, and wider than a small input has chunks — closed with the
// test.
func testPools(t *testing.T) []*backend.Pool {
	pools := []*backend.Pool{backend.NewPool(1), backend.NewPool(4)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

func TestSpGEMMCountsPaths(t *testing.T) {
	// Path 0→1→2: A² must have exactly A²[0,2] = 1.
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	a := FromGraph(g)
	for _, pool := range testPools(t) {
		a2, err := SpGEMM(pool, a, a)
		if err != nil {
			t.Fatal(err)
		}
		if a2.NNZ() != 1 {
			t.Fatalf("A² nnz = %d, want 1", a2.NNZ())
		}
		cols, vals := a2.Row(0)
		if len(cols) != 1 || cols[0] != 2 || vals[0] != 1 {
			t.Errorf("A²[0] = %v/%v", cols, vals)
		}
	}
}

func TestSpGEMMShapeError(t *testing.T) {
	a := &SpMat[struct{}]{NumRows: 2, NumCols: 3, Offsets: []int64{0, 0, 0}}
	b := &SpMat[struct{}]{NumRows: 2, NumCols: 2, Offsets: []int64{0, 0, 0}}
	if _, err := SpGEMM(testPools(t)[0], a, b); err == nil {
		t.Error("accepted shape mismatch")
	}
}

func TestEWiseMultSumTriangles(t *testing.T) {
	// The paper's Figure 2 example: nnz(A ∩ A²) = 2.
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	g.SortAdjacency()
	a := FromGraph(g)
	for _, pool := range testPools(t) {
		a2, err := SpGEMM(pool, a, a)
		if err != nil {
			t.Fatal(err)
		}
		count, err := EWiseMultSum(pool, a, a2)
		if err != nil {
			t.Fatal(err)
		}
		if count != 2 {
			t.Errorf("triangles = %d, want 2", count)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := fixtureDirected(t)
	opt := core.PageRankOptions{Iterations: 6}
	want := core.RefPageRank(g, opt)
	res, err := New().PageRank(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.ComparePageRank(want, res.Ranks); d > 1e-9 {
		t.Errorf("max relative diff %v", d)
	}
}

func TestPageRankCluster(t *testing.T) {
	g := fixtureDirected(t)
	want := core.RefPageRank(g, core.PageRankOptions{Iterations: 5})
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 5,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := core.ComparePageRank(want, res.Ranks); d > 1e-9 {
		t.Errorf("max relative diff %v", d)
	}
	if res.Stats.Report.BytesSent == 0 {
		t.Error("no SpMV traffic recorded")
	}
}

func TestClusterRequiresSquareNodeCount(t *testing.T) {
	g := fixtureDirected(t)
	_, err := New().PageRank(g, core.PageRankOptions{Iterations: 2,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err == nil {
		t.Error("accepted non-square node count")
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 9)
	res, err := New().BFS(g, core.BFSOptions{Source: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("distances differ from reference")
	}
}

func TestBFSCluster(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 9)
	res, err := New().BFS(g, core.BFSOptions{Source: 9,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("cluster distances differ from reference")
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

func TestTriangleCluster(t *testing.T) {
	g := fixtureAcyclic(t)
	want := core.RefTriangleCount(g)
	res, err := New().TriangleCount(g, core.TriangleOptions{
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Errorf("cluster count = %d, want %d", res.Count, want)
	}
}

func TestTriangleOutOfMemoryGuard(t *testing.T) {
	g := fixtureAcyclic(t)
	// A tiny modeled node memory forces the A² blowup to trip the guard.
	_, err := New().TriangleCount(g, core.TriangleOptions{
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4, MemoryPerNode: 1024}}})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	// The unguarded engine powers through.
	res, err := NewUnguarded().TriangleCount(g, core.TriangleOptions{
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4, MemoryPerNode: 1024}}})
	if err != nil {
		t.Fatalf("unguarded: %v", err)
	}
	if res.Count != core.RefTriangleCount(g) {
		t.Error("unguarded count wrong")
	}
}

func TestCollabFilterGD(t *testing.T) {
	bp := fixtureRatings(t)
	opt := core.CFOptions{K: 4, Iterations: 4, Seed: 6}
	res, err := New().CollabFilter(bp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("RMSE not decreasing: %v", res.RMSE)
	}
	// Identical update rule to the reference.
	ref := core.RefCollabFilterGD(bp, opt)
	for i := range ref.RMSE {
		d := ref.RMSE[i] - res.RMSE[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-3 {
			t.Errorf("iteration %d: RMSE %v vs reference %v", i, res.RMSE[i], ref.RMSE[i])
		}
	}
}

func TestCollabFilterRejectsSGD(t *testing.T) {
	bp := fixtureRatings(t)
	if _, err := New().CollabFilter(bp, core.CFOptions{Method: core.SGD}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestCollabFilterCluster(t *testing.T) {
	bp := fixtureRatings(t)
	res, err := New().CollabFilter(bp, core.CFOptions{K: 4, Iterations: 3, Seed: 6,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.MonotonicallyNonIncreasing(res.RMSE, 1e-3) {
		t.Errorf("distributed RMSE not decreasing: %v", res.RMSE)
	}
	if res.Stats.Report.BytesSent == 0 {
		t.Error("no K-pass traffic recorded")
	}
}

func TestSemiringIdentities(t *testing.T) {
	pt := PlusTimesF64()
	if pt.Add(pt.Zero(), 5) != 5 {
		t.Error("PlusTimes zero not identity")
	}
	mp := MinPlusI32()
	if mp.Add(mp.Zero(), 7) != 7 {
		t.Error("MinPlus zero not identity")
	}
	ob := OrAndBool()
	if ob.Add(ob.Zero(), true) != true || ob.Add(ob.Zero(), false) != false {
		t.Error("OrAnd zero not identity")
	}
	pw := PlusTimesWeighted()
	if pw.Mul(2.0, 3.0) != 6.0 {
		t.Error("weighted Mul wrong")
	}
}

func TestFromWeightedGraphRequiresWeights(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := FromWeightedGraph(g); err == nil {
		t.Error("accepted unweighted graph")
	}
}

func TestReduceRowDegrees(t *testing.T) {
	g := fixtureDirected(t)
	m := FromGraph(g)
	deg := Reduce(m, 1.0, PlusTimesF64())
	for v := uint32(0); v < g.NumVertices; v++ {
		if int64(deg[v]) != g.Degree(v) {
			t.Fatalf("vertex %d: Reduce degree %v, want %d", v, deg[v], g.Degree(v))
		}
	}
}

func TestApplyInPlace(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	Apply(v, func(i int, x float64) float64 { return x * float64(i) })
	want := []float64{0, 2, 6, 12}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Apply result %v, want %v", v, want)
		}
	}
}
