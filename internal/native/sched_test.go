package native

import (
	"math"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/trace"
)

// Moving a kernel between schedulers must not change results at all: the
// pool's dynamic sweeps and edge-balanced splits only move chunk
// boundaries, never the per-vertex arithmetic. These tests pin
// bit-identical agreement, at 1 and 4 pool workers, between the shipped
// pool kernels and serial loops over the same per-vertex arithmetic,
// preserved below as references.

// triangleLocalStatic is the triangle kernel as one serial loop.
func triangleLocalStatic(e *Engine, g *graph.CSR) int64 {
	var total int64
	var bv *bitvec.Vector
	for v := uint32(0); v < g.NumVertices; v++ {
		adjV := g.Neighbors(v)
		useBV := e.tuning.Bitvector && len(adjV) >= bitvecDegreeThreshold
		if useBV {
			if bv == nil {
				bv = bitvec.New(g.NumVertices)
			}
			for _, t := range adjV {
				bv.Set(t)
			}
		}
		for _, u := range adjV {
			adjU := g.Neighbors(u)
			if useBV {
				for _, t := range adjU {
					if bv.Get(t) {
						total++
					}
				}
			} else {
				total += int64(intersectSortedCount(adjV, adjU))
			}
		}
		if useBV {
			for _, t := range adjV {
				bv.Clear(t)
			}
		}
	}
	return total
}

// maxAbsDiffSerial is the serial reference for the pooled convergence
// check.
func maxAbsDiffSerial(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// pageRankLocalStatic is the PageRank kernel as serial loops, with and
// without contribution caching.
func pageRankLocalStatic(e *Engine, g *graph.CSR, opt core.PageRankOptions) []float64 {
	in := g.Transpose()
	outDeg := g.OutDegrees()
	n := int(g.NumVertices)
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1
	}
	var contrib []float64
	if e.tuning.ContribCaching {
		contrib = make([]float64, n)
	}
	for it := 0; it < opt.Iterations; it++ {
		if e.tuning.ContribCaching {
			for v := 0; v < n; v++ {
				if outDeg[v] > 0 {
					contrib[v] = (1 - opt.RandomJump) * pr[v] / float64(outDeg[v])
				} else {
					contrib[v] = 0
				}
			}
			for v := 0; v < n; v++ {
				sum := 0.0
				for _, j := range in.Neighbors(uint32(v)) {
					sum += contrib[j]
				}
				next[v] = opt.RandomJump + sum
			}
		} else {
			for v := 0; v < n; v++ {
				sum := 0.0
				for _, j := range in.Neighbors(uint32(v)) {
					sum += (1 - opt.RandomJump) * pr[j] / float64(outDeg[j])
				}
				next[v] = opt.RandomJump + sum
			}
		}
		pr, next = next, pr
	}
	return pr
}

func TestTriangleDynamicMatchesStatic(t *testing.T) {
	g := testGraphAcyclic(t)
	for _, workers := range []int{1, 4} {
		pool := backend.NewPool(workers)
		defer pool.Close()
		for _, bitv := range []bool{true, false} {
			tn := DefaultTuning()
			tn.Bitvector = bitv
			want := triangleLocalStatic(NewTuned(tn), g)
			if got := triangles(pool, g, g.Offsets, bitv); got != want {
				t.Errorf("workers=%d bitvector=%v: pool count %d != static count %d", workers, bitv, got, want)
			}
		}
	}
}

// TestMaxAbsDiffMatchesSerial pins the pooled convergence check's CAS-max
// fold to the serial scan, bit for bit, including the all-equal (zero)
// and single-outlier cases.
func TestMaxAbsDiffMatchesSerial(t *testing.T) {
	zero := make([]float64, 1000)
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = 1 / float64(i+1)
		b[i] = 1 / float64(i+3)
	}
	b[777] = -5e-7
	want := maxAbsDiffSerial(a, b)
	for _, workers := range []int{1, 4} {
		pool := backend.NewPool(workers)
		defer pool.Close()
		if got := maxAbsDiff(pool, zero, zero); got != 0 {
			t.Errorf("workers=%d: equal vectors differ by %v", workers, got)
		}
		if got := maxAbsDiff(pool, a, b); got != want {
			t.Errorf("workers=%d: pooled max %v != serial %v", workers, got, want)
		}
	}
}

// TestContributionBranchFreeMatchesBranchy pins the sweep's contribution,
// backend.DivDegree((1-jump)·pr, d), to the branchy form it replaced —
// (1-jump)·pr/d when d > 0, else 0 — bit for bit. The table covers degree
// 0 against ranks that would poison a division (NaN, ±Inf, −0, huge),
// degree 1 (the divisor d+1+has must stay exactly d), powers of two and
// the largest degrees, and subnormal quotients.
func TestContributionBranchFreeMatchesBranchy(t *testing.T) {
	branchy := func(jump, pr float64, d int64) float64 {
		if d > 0 {
			return (1 - jump) * pr / float64(d)
		}
		return 0
	}
	ranks := []float64{1, 0, math.Copysign(0, -1), 0.15, 1e300, 5e-324, -3.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	degrees := []int64{0, 1, 2, 3, 7, 64, 1 << 31, 1<<53 + 1, math.MaxInt64}
	for _, jump := range []float64{0.15, 0.3, 0} {
		for _, pr := range ranks {
			for _, d := range degrees {
				got := backend.DivDegree((1-jump)*pr, d)
				want := branchy(jump, pr, d)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("jump=%v pr=%v d=%d: branch-free %v (%#x), branchy %v (%#x)",
						jump, pr, d, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestPageRankEdgeBalancedMatchesStatic(t *testing.T) {
	g := testGraphDirected(t)
	for _, caching := range []bool{true, false} {
		tn := DefaultTuning()
		tn.ContribCaching = caching
		e := NewTuned(tn)
		opt := core.PageRankOptions{Iterations: 30, RandomJump: 0.15}
		wantRanks := pageRankLocalStatic(e, g, opt)
		for _, workers := range []int{1, 4} {
			pool := backend.NewPool(workers)
			defer pool.Close()
			n := g.NumVertices
			gotRanks := e.pageRankLocal(pool, g.Transpose(), g.OutDegrees(), opt, nil,
				make([]float64, n), make([]float64, n), make([]float64, n))
			for v := range wantRanks {
				// Bit-identical: chunk boundaries moved, per-vertex sums did not.
				if gotRanks[v] != wantRanks[v] {
					t.Fatalf("caching=%v workers=%d: rank[%d] = %v, static %v", caching, workers, v, gotRanks[v], wantRanks[v])
				}
			}
		}
	}
}

// TestAblationPageRankRunsOnThePool pins where the ablation gather runs:
// without contribution caching it is a sweep on the pool core.Exec.Local
// hands the kernel, one dispatch per iteration. A gather that spawned its
// own goroutines beside the pool records none.
func TestAblationPageRankRunsOnThePool(t *testing.T) {
	tn := DefaultTuning()
	tn.ContribCaching = false
	const iters = 5
	tr := trace.New()
	res, err := NewTuned(tn).PageRank(testGraphDirected(t), core.PageRankOptions{Iterations: iters, Exec: core.Exec{Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != iters {
		t.Fatalf("ran %d iterations, want %d", res.Stats.Iterations, iters)
	}
	if got := tr.Registry().HistSnapshots()["backend.pool.dispatch_ns"].Count; got < iters {
		t.Errorf("%d pool dispatches recorded over %d iterations, want at least one each", got, iters)
	}
}

// TestBFSDynamicMatchesArrayReference forces the parallel top-down /
// bottom-up machinery (it engages above 2^19 edges) and checks every
// distance against the simple array-probing baseline.
func TestBFSDynamicMatchesArrayReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph BFS conformance is not a -short test")
	}
	edges, err := gen.RMAT(gen.Graph500Config(15, 16, 21))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 15)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 1<<19 {
		t.Fatalf("test graph too small to engage the parallel BFS path: %d edges", g.NumEdges())
	}
	pool := backend.NewPool(0)
	defer pool.Close()
	dist, _ := New().bfsLocal(pool, g, 1, nil)
	refDist := make([]int32, g.NumVertices)
	for i := range refDist {
		refDist[i] = -1
	}
	refDist[1] = 0
	refDist, _ = bfsTopDownArray(g, refDist, 1)
	for v := range refDist {
		if dist[v] != refDist[v] {
			t.Fatalf("dist[%d] = %d, reference %d", v, dist[v], refDist[v])
		}
	}
}
