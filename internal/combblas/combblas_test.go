package combblas

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// bitmap, no chunks.
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

// straddle is a product over n columns whose rows land on bitmap edges. B's
// row 0 is a hub over every column; A's rows 0 and 130 reach it ahead of
// short rows, so a bit or count the hub leaves behind would show in the rows
// after it. B's rows 1–4 are edges: the columns each side of a bitmap word
// edge, two columns words apart (a wide, sparse product row) next to the
// dense rows the hub and the random tail make.
func straddle(n uint32, seed int64, edges [4][]uint32) (a, b *SpMat[struct{}]) {
	r := rand.New(rand.NewSource(seed))
	bRows := randomRows(r, int(n), n, 40, 0.2)
	bRows[0] = make([]uint32, n)
	for k := range bRows[0] {
		bRows[0][k] = uint32(k)
	}
	copy(bRows[1:], edges[:])
	aRows := randomRows(r, 300, n, 6, 0.1)
	copy(aRows, [][]uint32{{0}, {1}, {1, 4}, {2}, {3}, {2, 3}, {0, 1, 2}, {4}})
	aRows[130] = []uint32{0, 4}
	return patternFromRows(n, aRows), patternFromRows(n, bRows)
}

// wordStraddle is a straddle over 500 columns — not a whole number of
// 64-column mark words — on the word edges 63/64 and 127/128 and the last
// column.
func wordStraddle() (a, b *SpMat[struct{}]) {
	return straddle(500, 47, [4][]uint32{{63, 64, 127, 128, 499}, {0, 499}, {38, 300}, {62, 63, 64, 65, 126, 127, 128, 129}})
}

// summaryStraddle is a straddle over 9001 columns — three 4096-column
// summary words, the last one partial — on the summary-word edges 4095/4096
// and 8191/8192 and the last column.
func summaryStraddle() (a, b *SpMat[struct{}]) {
	return straddle(9001, 48, [4][]uint32{{4095, 4096, 8191, 8192, 9000}, {0, 9000}, {63, 4160}, {4032, 4094, 4095, 4096, 4097, 8190, 8191, 8192, 8193}})
}

// spgemmCases are the products the differential and layout tests run: the
// skewed input triangle counting squares, a rectangular product, operands
// whose empty rows span whole chunks, a hub row that touches every column
// ahead of short rows (which must not pay for it, nor see its counts), and
// the bitmap word-edge products of wordStraddle and summaryStraddle.
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
	wa, wb := wordStraddle()
	sa, sb := summaryStraddle()
	return map[string][2]*SpMat[struct{}]{
		"rmat-scale10":     {rmat, rmat},
		"rectangular":      {patternFromRows(90, randomRows(r, 300, 90, 8, 0.2)), patternFromRows(1000, randomRows(r, 90, 1000, 40, 0.1))},
		"empty-rows":       {patternFromRows(700, sparse), patternFromRows(700, sparse)},
		"hub-row":          {hub, hub},
		"word-straddle":    {wa, wb},
		"summary-straddle": {sa, sb},
	}
}

// TestAppendRowWindowMatchesReference is the windowed differential: one
// accumulator per column window — windows that start and end off a 64-column
// mark word or a 4096-column summary word, widths that are a multiple of
// neither — emits every row of the wordStraddle and summaryStraddle products,
// and each row must be the naive product's restricted to the window, with
// the column offset added back. Rows collect without truncation, as a
// worker's chunk does, and after the last row the counts and both bitmap
// levels must be all zero.
func TestAppendRowWindowMatchesReference(t *testing.T) {
	wa, wb := wordStraddle()
	sa, sb := summaryStraddle()
	for _, fx := range []struct {
		name    string
		a, b    *SpMat[struct{}]
		windows [][2]uint32
	}{
		{"word-straddle", wa, wb, [][2]uint32{{0, 500}, {37, 301}, {1, 499}, {128, 500}, {63, 129}, {64, 128}, {499, 500}}},
		{"summary-straddle", sa, sb, [][2]uint32{{0, 9001}, {37, 9000}, {4095, 4097}, {4096, 8192}, {1, 8193}, {8191, 9001}, {4000, 4200}}},
	} {
		want := spgemmReference(fx.a, fx.b)
		for _, w := range fx.windows {
			clo, chi := w[0], w[1]
			acc := newRowAccumulator(chi - clo)
			for r := uint32(0); r < fx.a.NumRows; r++ {
				var wantCols []uint32
				var wantVals []int64
				cols, vals := want.Row(r)
				for i, k := range cols {
					if k >= clo && k < chi {
						wantCols, wantVals = append(wantCols, k), append(wantVals, vals[i])
					}
				}
				before := len(acc.cols)
				aCols, _ := fx.a.Row(r)
				acc.appendRow(aCols, fx.b, clo, chi)
				if got := acc.cols[before:]; !slices.Equal(got, wantCols) {
					t.Fatalf("%s window [%d,%d) row %d: columns %v, want %v", fx.name, clo, chi, r, got, wantCols)
				}
				if got := acc.vals[before:]; !slices.Equal(got, wantVals) {
					t.Fatalf("%s window [%d,%d) row %d: counts %v, want %v", fx.name, clo, chi, r, got, wantVals)
				}
			}
			nonzero := func(w uint64) bool { return w != 0 }
			if slices.ContainsFunc(acc.count, func(c int64) bool { return c != 0 }) ||
				slices.ContainsFunc(acc.mark, nonzero) || slices.ContainsFunc(acc.summary, nonzero) {
				t.Errorf("%s window [%d,%d): accumulator not clean after the last row", fx.name, clo, chi)
			}
		}
	}
}

// TestSpGEMMMatchesReferenceAtAnyPoolSize is the differential and layout
// pin: Offsets equal the naive product's, the blocks laid end to end equal
// its Cols and Vals, and so does every row Row reads off its block — the
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
			if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(slices.Concat(got.Cols...), want.Cols) || !slices.Equal(slices.Concat(got.Vals...), want.Vals) {
				t.Fatalf("%s, %d workers: product differs from the naive reference", name, workers)
			}
			for r := uint32(0); r < got.NumRows; r++ {
				cols, vals := got.Row(r)
				if wantCols, wantVals := want.Row(r); !slices.Equal(cols, wantCols) || !slices.Equal(vals, wantVals) {
					t.Fatalf("%s, %d workers: row %d reads %v/%v, want %v/%v", name, workers, r, cols, vals, wantCols, wantVals)
				}
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
// its chunk count: two exact-size blocks per chunk, plus per-worker scratch
// (whose growth is logarithmic) and the product's Offsets and block tables.
// A slice pair per row — over 1 700 allocations for this input's 867
// non-empty product rows — cannot come back unnoticed.
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

// TestSpGEMMAllocatesTheProductOnce bounds one call's allocated bytes by
// the product's modelled size, nnz(A²)·12 (a uint32 column and an int64
// count per nonzero): the blocks are the product, so beyond them a call
// allocates only Offsets and per-worker scratch — a dense count array and
// chunk buffers that grow to the worker's largest chunk. On this scale-15
// input that reads about 1.13, 1.19 and 1.58 at 1, 2 and 8 workers; a second,
// contiguous copy of the product would put every pool size above 2.1. The
// scale is the smallest at which the scratch leaves the bound 20 % headroom.
func TestSpGEMMAllocatesTheProductOnce(t *testing.T) {
	const bound = 2.0
	a := FromGraph(acyclicRMAT(t, 15, 45))
	for _, workers := range []int{1, 2, 8} {
		pool := par.NewPool(workers)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := SpGEMM(pool, a, a)
		runtime.ReadMemStats(&after)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.NNZ()*12)
		if ratio > bound {
			t.Errorf("%d workers: allocated %.2f× nnz(A²)·12 bytes (nnz %d), want at most %v×", workers, ratio, c.NNZ(), bound)
		}
		t.Logf("%d workers: %.2f× nnz(A²)·12 bytes, nnz %d", workers, ratio, c.NNZ())
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
