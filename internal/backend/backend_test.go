package backend

import (
	"math"
	"math/rand"
	"testing"

	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// testGraph builds a small RMAT graph; symmetric graphs are what the
// traversal kernels see in production.
func testGraph(tb testing.TB, scale int, seed int64, symmetric bool) *graph.CSR {
	tb.Helper()
	return rmatGraph(tb, uint32(1)<<uint(scale), scale, seed, symmetric)
}

// rmatGraph builds an edge-factor-8 RMAT of the given scale over n ≤
// 2^scale vertex ids, dropping the edges with an endpoint at n or above.
func rmatGraph(tb testing.TB, n uint32, scale int, seed int64, symmetric bool) *graph.CSR {
	tb.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(scale, 8, seed))
	if err != nil {
		tb.Fatal(err)
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e.Src < n && e.Dst < n {
			b.AddEdges([]graph.Edge{e})
		}
	}
	opt := graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true}
	if symmetric {
		opt.Orientation = graph.Symmetrize
	}
	g, err := b.Build(opt)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// refSpMVSum is the serial reference for the plus-times pattern product.
func refSpMVSum(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.NumRows)
	for r := 0; r < int(m.NumRows); r++ {
		sum := 0.0
		for i := m.Offsets[r]; i < m.Offsets[r+1]; i++ {
			sum += x[m.Cols[i]]
		}
		y[r] = sum
	}
	return y
}

// refBFS is the serial reference traversal.
func refBFS(m *Matrix, source uint32) []int32 {
	dist := make([]int32, m.NumRows)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	frontier := []uint32{source}
	for level := int32(1); len(frontier) > 0; level++ {
		var next []uint32
		for _, v := range frontier {
			for i := m.Offsets[v]; i < m.Offsets[v+1]; i++ {
				if t := m.Cols[i]; dist[t] == -1 {
					dist[t] = level
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return dist
}

func randVec(n uint32, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

func TestSumVecMulMatchesReference(t *testing.T) {
	g := testGraph(t, 10, 7, false)
	m := FromCSR(g)
	x := randVec(g.NumVertices, 1)
	want := refSpMVSum(m, x)

	for _, workers := range []int{1, 3, 8} {
		pool := par.NewPool(workers)
		k := NewSumVecMul(pool, m)
		y := make([]float64, g.NumVertices)
		k.MapInto(y, x, nil)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want %v (bit-exact)", workers, i, y[i], want[i])
			}
		}
		// The accumulate form folds each row onto the value y holds.
		seed := randVec(g.NumVertices, 4)
		copy(y, seed)
		k.AddInto(y, x)
		for r := range seed {
			acc := seed[r]
			for _, c := range m.Cols[m.Offsets[r]:m.Offsets[r+1]] {
				acc += x[c]
			}
			if y[r] != acc {
				t.Fatalf("workers=%d: AddInto y[%d] = %v, want %v (bit-exact)", workers, r, y[r], acc)
			}
		}
		pool.Close()
	}
}

func TestTraversalMatchesReference(t *testing.T) {
	g := testGraph(t, 10, 21, true)
	m := FromCSR(g)
	want := refBFS(m, 1)

	for _, workers := range []int{1, 4} {
		pool := par.NewPool(workers)
		tv := NewTraversal(pool, m, "backend.bfs.level", nil)
		// Force the parallel kernels even on this small graph.
		tv.serialEdges = 0
		tv.serialFrontier = 0
		dist := make([]int32, g.NumVertices)
		for i := range dist {
			dist[i] = -1
		}
		dist[1] = 0
		tv.Run(dist, 1)
		for i := range want {
			if dist[i] != want[i] {
				t.Fatalf("workers=%d: dist[%d] = %d, want %d", workers, i, dist[i], want[i])
			}
		}
		pool.Close()
	}
}

func TestDensePass(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	n := 1000
	src := randVec(uint32(n), 9)
	dst := make([]float64, n)
	d := NewDense(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = 2 * src[i]
		}
	})
	d.Run()
	for i := range dst {
		if dst[i] != 2*src[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], 2*src[i])
		}
	}
}

// TestPageRankSweepInPlace: the shared PageRank sweep run in place,
// Run(p, p) as the lowered engines call it, equals Run(next, p) as Native
// calls it, bit for bit, sweep after sweep, in both engine forms of
// (s, a, b), on pools of 1 and 3 workers — and both equal the serial
// contribution-then-fold reference.
func TestPageRankSweepInPlace(t *testing.T) {
	g := testGraph(t, 10, 17, false)
	in := FromCSR(g.Transpose())
	deg := g.OutDegrees()
	n := int(g.NumVertices)
	ref := func(src []float64, s, a, b float64) []float64 {
		contrib := make([]float64, n)
		for v := range contrib {
			if deg[v] > 0 {
				contrib[v] = s * src[v] / float64(deg[v])
			}
		}
		dst := refSpMVSum(in, contrib)
		for r := range dst {
			dst[r] = a + b*dst[r]
		}
		return dst
	}
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		for _, f := range [][3]float64{{0.7, 0.3, 1}, {1, 0.3, 0.7}} {
			s, a, b := f[0], f[1], f[2]
			p := randVec(g.NumVertices, 5)
			cur, next := append([]float64(nil), p...), make([]float64, n)
			want := append([]float64(nil), p...)
			inPlace := NewPageRankSweep(pool, in, deg, s, a, b, make([]float64, n))
			outOfPlace := NewPageRankSweep(pool, in, deg, s, a, b, make([]float64, n))
			for sweep := 0; sweep < 4; sweep++ {
				inPlace.Run(p, p)
				outOfPlace.Run(next, cur)
				cur, next = next, cur
				want = ref(want, s, a, b)
				for v := range p {
					if math.Float64bits(p[v]) != math.Float64bits(cur[v]) || math.Float64bits(p[v]) != math.Float64bits(want[v]) {
						t.Fatalf("workers=%d (s,a,b)=%v sweep %d: rank[%d] in place %v, out of place %v, reference %v",
							workers, f, sweep, v, p[v], cur[v], want[v])
					}
				}
			}
		}
		pool.Close()
	}
}

// TestZeroSteadyStateAllocs is the acceptance criterion: after warmup,
// per-iteration kernel calls allocate nothing.
func TestZeroSteadyStateAllocs(t *testing.T) {
	g := testGraph(t, 10, 13, true)
	m := FromCSR(g)
	pool := par.NewPool(4)
	defer pool.Close()

	x := randVec(g.NumVertices, 3)
	y := make([]float64, g.NumVertices)
	k := NewSumVecMul(pool, m)
	post := func(r uint32, acc float64) float64 { return 0.3 + 0.7*acc }
	k.MapInto(y, x, post) // warmup
	if a := testing.AllocsPerRun(10, func() { k.AffineInto(y, x, 0.3, 0.7) }); a != 0 {
		t.Errorf("SumVecMul.AffineInto allocates %v per call in steady state", a)
	}
	if a := testing.AllocsPerRun(10, func() { k.MapInto(y, x, post) }); a != 0 {
		t.Errorf("SumVecMul.MapInto allocates %v per call in steady state", a)
	}
	if a := testing.AllocsPerRun(10, func() { k.AddInto(y, x) }); a != 0 {
		t.Errorf("SumVecMul.AddInto allocates %v per call in steady state", a)
	}

	sweep := NewPageRankSweep(pool, m, g.OutDegrees(), 0.7, 0.3, 1, make([]float64, g.NumVertices))
	sweep.Run(y, x)
	if a := testing.AllocsPerRun(10, func() { sweep.Run(y, y) }); a != 0 {
		t.Errorf("PageRankSweep.Run allocates %v per call in steady state", a)
	}

	d := NewDense(pool, int(g.NumVertices), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = x[i] * 0.5
		}
	})
	d.Run()
	if a := testing.AllocsPerRun(10, func() { d.Run() }); a != 0 {
		t.Errorf("Dense.Run allocates %v per call in steady state", a)
	}

	tv := NewTraversal(pool, m, "backend.bfs.level", nil)
	tv.serialEdges = 0
	tv.serialFrontier = 0
	dist := make([]int32, g.NumVertices)
	reset := func() {
		for i := range dist {
			dist[i] = -1
		}
		dist[1] = 0
	}
	reset()
	tv.Run(dist, 1) // warmup sizes the frontier buffers
	if a := testing.AllocsPerRun(5, func() { reset(); tv.Run(dist, 1) }); a != 0 {
		t.Errorf("Traversal.Run allocates %v per call in steady state", a)
	}
}
