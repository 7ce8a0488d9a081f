package combblas

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
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

func fixtureAcyclic(t testing.TB) *graph.CSR { return acyclicRMAT(t, 8, 43) }

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
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 44))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// SpMV is the serial oracle y[r] = ⊕_c A[r,c] ⊗ x[c] the SpMSpV and
// DistSpMV tests compare against: each row folds left to right in
// stored-column order, starting from Zero.
func SpMV[A, X, Y any](m *SpMat[A], x []X, sr Semiring[A, X, Y]) ([]Y, error) {
	if len(x) != int(m.NumCols) {
		return nil, fmt.Errorf("combblas: SpMV vector length %d, matrix has %d columns", len(x), m.NumCols)
	}
	y := make([]Y, m.NumRows)
	for r := range y {
		acc := sr.Zero()
		cols, vals := m.Row(uint32(r))
		for i, c := range cols {
			acc = sr.Add(acc, sr.Mul(vals[i], x[c]))
		}
		y[r] = acc
	}
	return y, nil
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
func testPools(t *testing.T) []*par.Pool {
	pools := []*par.Pool{par.NewPool(1), par.NewPool(4)}
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

// patternFromRows builds a pattern matrix from per-row column lists (each
// sorted, without duplicates).
func patternFromRows(numCols uint32, rows [][]uint32) *SpMat[struct{}] {
	m := &SpMat[struct{}]{NumRows: uint32(len(rows)), NumCols: numCols, Offsets: make([]int64, len(rows)+1)}
	for r, cols := range rows {
		m.Cols = append(m.Cols, cols...)
		m.Offsets[r+1] = int64(len(m.Cols))
	}
	m.Vals = make([]struct{}, len(m.Cols))
	return m
}

// randomRows draws rows of a pattern matrix: a row is empty with
// probability emptyFrac, otherwise it holds up to maxDeg distinct columns.
func randomRows(r *rand.Rand, numRows int, numCols uint32, maxDeg int, emptyFrac float64) [][]uint32 {
	rows := make([][]uint32, numRows)
	for i := range rows {
		if r.Float64() < emptyFrac {
			continue
		}
		for d := 1 + r.Intn(maxDeg); d > 0; d-- {
			rows[i] = append(rows[i], uint32(r.Intn(int(numCols))))
		}
		slices.Sort(rows[i])
		rows[i] = slices.Compact(rows[i])
	}
	return rows
}

// spgemmReference is the product the obvious way: one dense count vector
// per row, filled by the triple loop and read back in column order — no
// touched list, no sort, no chunks.
func spgemmReference(a, b *SpMat[struct{}]) *SpMat[int64] {
	c := &SpMat[int64]{NumRows: a.NumRows, NumCols: b.NumCols, Offsets: make([]int64, a.NumRows+1), Cols: []uint32{}, Vals: []int64{}}
	for i := uint32(0); i < a.NumRows; i++ {
		dense := make([]int64, b.NumCols)
		aCols, _ := a.Row(i)
		for _, j := range aCols {
			bCols, _ := b.Row(j)
			for _, k := range bCols {
				dense[k]++
			}
		}
		for k, v := range dense {
			if v != 0 {
				c.Cols = append(c.Cols, uint32(k))
				c.Vals = append(c.Vals, v)
			}
		}
		c.Offsets[i+1] = int64(len(c.Cols))
	}
	return c
}

// wordStraddle is a product over 500 columns — not a whole number of
// 64-column bitmap words — whose rows land on the word edges 63/64 and
// 127/128 and on the last column. B's row 0 is a hub over every column;
// A's rows 0 and 130 reach it ahead of short rows, so a bit or count the
// hub leaves behind would show in the rows after it. B's rows 2 and 3 put
// two columns words apart (a wide, sparse product row), next to the dense
// rows the hub and the random tail make.
func wordStraddle() (a, b *SpMat[struct{}]) {
	const n = 500
	r := rand.New(rand.NewSource(47))
	bRows := randomRows(r, n, n, 40, 0.2)
	bRows[0] = make([]uint32, n)
	for k := range bRows[0] {
		bRows[0][k] = uint32(k)
	}
	bRows[1] = []uint32{63, 64, 127, 128, n - 1}
	bRows[2] = []uint32{0, n - 1}
	bRows[3] = []uint32{38, 300}
	bRows[4] = []uint32{62, 63, 64, 65, 126, 127, 128, 129}
	aRows := randomRows(r, 300, n, 6, 0.1)
	copy(aRows, [][]uint32{{0}, {1}, {1, 4}, {2}, {3}, {2, 3}, {0, 1, 2}, {4}})
	aRows[130] = []uint32{0, 4}
	return patternFromRows(n, aRows), patternFromRows(n, bRows)
}

// spgemmCases are the products the differential and layout tests run: the
// skewed input triangle counting squares, a rectangular product, operands
// whose empty rows span whole chunks, a hub row that touches every column
// ahead of short rows (which must not pay for it, nor see its counts), and
// the bitmap word-edge product of wordStraddle.
func spgemmCases(t *testing.T) map[string][2]*SpMat[struct{}] {
	rmat := FromGraph(acyclicRMAT(t, 10, 45))

	r := rand.New(rand.NewSource(46))
	sparse := randomRows(r, 700, 700, 6, 0.6)
	for i := 128; i < 400; i++ {
		sparse[i] = nil // chunks 1 and 2 produce nothing at all
	}
	hubRows := randomRows(r, 500, 500, 5, 0.1)
	hubRows[3] = make([]uint32, 500)
	for k := range hubRows[3] {
		hubRows[3][k] = uint32(k)
	}
	hub := patternFromRows(500, hubRows)
	sa, sb := wordStraddle()
	return map[string][2]*SpMat[struct{}]{
		"rmat-scale10":  {rmat, rmat},
		"rectangular":   {patternFromRows(90, randomRows(r, 300, 90, 8, 0.2)), patternFromRows(1000, randomRows(r, 90, 1000, 40, 0.1))},
		"empty-rows":    {patternFromRows(700, sparse), patternFromRows(700, sparse)},
		"hub-row":       {hub, hub},
		"word-straddle": {sa, sb},
	}
}

// TestAppendRowWindowMatchesReference is the windowed differential: one
// accumulator per column window — windows that start and end off a 64-column
// word edge, widths that are not a multiple of 64 — emits every row of the
// wordStraddle product, and each row must be the naive product's restricted
// to the window, with the column offset added back. Rows collect without
// truncation, as a worker's chunk does, and after the last row the counts and
// the bitmap must be all zero. Each wide window must see rows on both sides
// of the emission rule (read off the bitmap, or sorted), so neither path goes
// unchecked.
func TestAppendRowWindowMatchesReference(t *testing.T) {
	a, b := wordStraddle()
	want := spgemmReference(a, b)
	for _, w := range [][2]uint32{{0, 500}, {37, 301}, {1, 499}, {128, 500}, {63, 129}, {64, 128}, {499, 500}} {
		clo, chi := w[0], w[1]
		acc := newRowAccumulator(chi - clo)
		scanned, sorted := 0, 0
		for r := uint32(0); r < a.NumRows; r++ {
			var wantCols []uint32
			var wantVals []int64
			cols, vals := want.Row(r)
			for i, k := range cols {
				if k >= clo && k < chi {
					wantCols, wantVals = append(wantCols, k), append(wantVals, vals[i])
				}
			}
			before := len(acc.cols)
			aCols, _ := a.Row(r)
			acc.appendRow(aCols, b, clo, chi)
			if got := acc.cols[before:]; !slices.Equal(got, wantCols) {
				t.Fatalf("window [%d,%d) row %d: columns %v, want %v", clo, chi, r, got, wantCols)
			}
			if got := acc.vals[before:]; !slices.Equal(got, wantVals) {
				t.Fatalf("window [%d,%d) row %d: counts %v, want %v", clo, chi, r, got, wantVals)
			}
			// The emission rule: a word span below t·bits.Len(t) is scanned.
			if n := len(wantCols); n > 0 {
				if span := int(wantCols[n-1]-clo)>>6 - int(wantCols[0]-clo)>>6; span < n*bits.Len(uint(n)) {
					scanned++
				} else {
					sorted++
				}
			}
		}
		if chi-clo >= 5*64 && (scanned == 0 || sorted == 0) {
			t.Errorf("window [%d,%d): %d rows scanned, %d sorted; want both paths taken", clo, chi, scanned, sorted)
		}
		if slices.ContainsFunc(acc.count, func(c int64) bool { return c != 0 }) ||
			slices.ContainsFunc(acc.mark, func(w uint64) bool { return w != 0 }) {
			t.Errorf("window [%d,%d): accumulator not clean after the last row", clo, chi)
		}
	}
}

// TestSpGEMMMatchesReferenceAtAnyPoolSize is the differential and layout
// pin: Offsets, Cols and Vals equal the naive product's — so they are the
// same bytes at 1, 2 and 8 workers — and every row's columns strictly
// increase. The 8-worker pool on the skewed input is also what the race
// detector watches the per-worker accumulators and chunk buffers under.
func TestSpGEMMMatchesReferenceAtAnyPoolSize(t *testing.T) {
	for name, ab := range spgemmCases(t) {
		want := spgemmReference(ab[0], ab[1])
		if name == "hub-row" {
			if cols, _ := want.Row(3); len(cols) != int(want.NumCols) {
				t.Fatalf("hub row of the reference touches %d of %d columns", len(cols), want.NumCols)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			pool := par.NewPool(workers)
			got, err := SpGEMM(pool, ab[0], ab[1])
			pool.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
				t.Fatalf("%s, %d workers: shape %d×%d, want %d×%d", name, workers, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
			}
			if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Cols, want.Cols) || !slices.Equal(got.Vals, want.Vals) {
				t.Fatalf("%s, %d workers: product differs from the naive reference", name, workers)
			}
			for r := uint32(0); r < got.NumRows; r++ {
				cols, _ := got.Row(r)
				for i := 1; i < len(cols); i++ {
					if cols[i-1] >= cols[i] {
						t.Fatalf("%s, %d workers: row %d columns not strictly increasing: %v", name, workers, r, cols)
					}
				}
			}
		}
	}
}

// TestSpGEMMAllocatesPerChunkNotPerRow bounds the product's allocations by
// its chunk count: two exact-size copies per chunk, plus per-worker scratch
// (whose growth is logarithmic) and the output arrays. A slice pair per row
// — over 1 700 allocations for this input's 867 non-empty product rows —
// cannot come back unnoticed.
func TestSpGEMMAllocatesPerChunkNotPerRow(t *testing.T) {
	a := spgemmCases(t)["rmat-scale10"][0]
	pool := par.NewPool(2)
	defer pool.Close()
	chunks := (int(a.NumRows) + spgemmGrain - 1) / spgemmGrain
	bound := float64(2*chunks + 64*pool.Workers() + 16)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SpGEMM(pool, a, a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("%v allocations for %d rows in %d chunks, want at most %v", allocs, a.NumRows, chunks, bound)
	}
	t.Logf("%v allocations, %d rows, %d chunks", allocs, a.NumRows, chunks)
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
	// One SpMSpV round per level, the last one finding nothing.
	if levels := int(slices.Max(want)) + 1; res.Stats.Iterations != levels {
		t.Errorf("%d rounds, want %d levels", res.Stats.Iterations, levels)
	}
}

// TestBFSStepsAboveSerialCutover: CombBLAS's local BFS on a graph above
// the backend's 2^19-edge serial cutover, where its wide levels claim in
// parallel on the pool and come back in ascending order, must equal the
// serial reference BFS from the hub: the distances, and one SpMSpV round
// per level.
func TestBFSStepsAboveSerialCutover(t *testing.T) {
	edges, err := gen.RMAT(gen.Graph500Config(16, 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 16)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() <= 1<<19 {
		t.Fatalf("fixture: %d edges do not clear the serial cutover", g.NumEdges())
	}
	hub := uint32(0)
	for v := uint32(1); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	want := core.RefBFS(g, hub)
	res, err := New().BFS(g, core.BFSOptions{Source: hub})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) || res.Stats.Iterations != int(slices.Max(want))+1 {
		t.Errorf("%d rounds, want %d; distances equal: %v", res.Stats.Iterations, int(slices.Max(want))+1, core.EqualDistances(want, res.Distances))
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
	ob := OrAndBool()
	if ob.Add(ob.Zero(), true) != true || ob.Add(ob.Zero(), false) != false {
		t.Error("OrAnd zero not identity")
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
