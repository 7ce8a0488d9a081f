package native

import (
	"math"
	"sync/atomic"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// Moving a kernel between schedulers must not change results at all: the
// pool's dynamic sweeps and edge-balanced splits only move chunk
// boundaries, never the per-vertex arithmetic. These tests pin
// bit-identical agreement, at 1 and 4 pool workers, between the shipped
// pool kernels and the original static-chunk versions, which are preserved
// below as references (and reused by the skewed benchmarks as the
// baseline side).

// triangleLocalStatic is the pre-scheduling-layer triangle kernel: one
// equal-vertex-count chunk per worker, counts merged through a single
// shared atomic.
func triangleLocalStatic(e *Engine, g *graph.CSR) int64 {
	var total int64
	n := int(g.NumVertices)
	par.For(n, func(lo, hi int) {
		var local int64
		var bv *bitvec.Vector
		var bvOwner []uint32
		for v := lo; v < hi; v++ {
			adjV := g.Neighbors(uint32(v))
			if len(adjV) == 0 {
				continue
			}
			useBV := e.tuning.Bitvector && len(adjV) >= bitvecDegreeThreshold
			if useBV {
				if bv == nil {
					bv = bitvec.New(g.NumVertices)
				}
				for _, t := range adjV {
					bv.Set(t)
				}
				bvOwner = adjV
			}
			for _, u := range adjV {
				adjU := g.Neighbors(u)
				if useBV {
					for _, t := range adjU {
						if bv.Get(t) {
							local++
						}
					}
				} else {
					local += int64(intersectSortedCount(adjV, adjU))
				}
			}
			if useBV {
				for _, t := range bvOwner {
					bv.Clear(t)
				}
			}
		}
		atomic.AddInt64(&total, local)
	})
	return atomic.LoadInt64(&total)
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

// pageRankLocalStatic is the pre-scheduling-layer PageRank kernel:
// equal-vertex gather chunks and a serial maxAbsDiff.
func pageRankLocalStatic(e *Engine, g *graph.CSR, opt core.PageRankOptions) ([]float64, int) {
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
	iters := 0
	for it := 0; it < opt.Iterations; it++ {
		iters++
		if e.tuning.ContribCaching {
			par.For(n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					if outDeg[v] > 0 {
						contrib[v] = (1 - opt.RandomJump) * pr[v] / float64(outDeg[v])
					} else {
						contrib[v] = 0
					}
				}
			})
			par.For(n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, j := range in.Neighbors(uint32(v)) {
						sum += contrib[j]
					}
					next[v] = opt.RandomJump + sum
				}
			})
		} else {
			par.For(n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, j := range in.Neighbors(uint32(v)) {
						sum += (1 - opt.RandomJump) * pr[j] / float64(outDeg[j])
					}
					next[v] = opt.RandomJump + sum
				}
			})
		}
		pr, next = next, pr
		if opt.Tolerance > 0 && maxAbsDiffSerial(pr, next) <= opt.Tolerance {
			break
		}
	}
	return pr, iters
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
		// Tolerance > 0 exercises the pooled maxAbsDiff check's
		// early-convergence path too.
		opt := core.PageRankOptions{Iterations: 30, RandomJump: 0.15, Tolerance: 1e-9}
		wantRanks, wantIters := pageRankLocalStatic(e, g, opt)
		for _, workers := range []int{1, 4} {
			pool := backend.NewPool(workers)
			defer pool.Close()
			n := g.NumVertices
			gotRanks, gotIters := e.pageRankLocal(pool, g.Transpose(), g.OutDegrees(), opt, nil,
				make([]float64, n), make([]float64, n), make([]float64, n))
			if gotIters != wantIters {
				t.Errorf("caching=%v workers=%d: %d iterations, static ran %d", caching, workers, gotIters, wantIters)
			}
			for v := range wantRanks {
				// Bit-identical: chunk boundaries moved, per-vertex sums did not.
				if gotRanks[v] != wantRanks[v] {
					t.Fatalf("caching=%v workers=%d: rank[%d] = %v, static %v", caching, workers, v, gotRanks[v], wantRanks[v])
				}
			}
		}
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
