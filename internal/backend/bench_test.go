package backend

import (
	"testing"

	"graphmaze/internal/par"
)

// The backend micro-benchmarks are developer tools: nothing records
// their output. The zero-alloc acceptance criterion for the steady-state
// kernels is TestZeroSteadyStateAllocs, and the recorded timings are the
// backend.* per-layer metrics of BENCHMARK.json.

func benchGraph(b *testing.B, symmetric bool) *Matrix {
	b.Helper()
	return FromCSR(testGraph(b, 14, 9, symmetric))
}

// BenchmarkBackendSumVecMul is the plus-times pattern product:
// the per-iteration core of every lowered PageRank.
func BenchmarkBackendSumVecMul(b *testing.B) {
	m := benchGraph(b, false)
	pool := par.NewPool(0)
	defer pool.Close()
	k := NewSumVecMul(pool, m)
	x := randVec(m.NumRows, 1)
	y := make([]float64, m.NumRows)
	k.MapInto(y, x, nil)
	b.SetBytes(m.NNZ() * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MapInto(y, x, nil)
	}
}

// BenchmarkBackendPageRankIteration is one PageRankSweep.Run, the full
// PageRank iteration every engine lowers onto — contribution pass plus
// affine SpMV — the unit the 1.5× engine-overhead budget is measured
// against.
func BenchmarkBackendPageRankIteration(b *testing.B) {
	m := benchGraph(b, false)
	pool := par.NewPool(0)
	defer pool.Close()
	n := int(m.NumRows)
	pr := randVec(m.NumRows, 2)
	next := make([]float64, n)
	deg := make([]int64, n)
	for r := 0; r < n; r++ {
		deg[r] = m.Offsets[r+1] - m.Offsets[r]
	}
	sweep := NewPageRankSweep(pool, m, deg, 0.7, 0.3, 1, make([]float64, n))
	iter := func() {
		sweep.Run(next, pr)
		pr, next = next, pr
	}
	iter()
	b.SetBytes(m.NNZ() * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// BenchmarkBackendTraversal is the full direction-switching BFS.
func BenchmarkBackendTraversal(b *testing.B) {
	m := benchGraph(b, true)
	pool := par.NewPool(0)
	defer pool.Close()
	tv := NewTraversal(pool, m, "backend.bfs.level", nil)
	tv.serialEdges = 0 // force the parallel kernels at bench scale
	dist := make([]int32, m.NumRows)
	reset := func() {
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
	}
	reset()
	tv.Run(dist, 0)
	b.SetBytes(m.NNZ() * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		tv.Run(dist, 0)
	}
}
