package backend

import (
	"testing"
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
	pool := NewPool(0)
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

// BenchmarkBackendPageRankIteration is one full lowered PageRank
// iteration — contribution pass plus mapped SpMV — the unit the 1.5×
// engine-overhead budget is measured against.
func BenchmarkBackendPageRankIteration(b *testing.B) {
	m := benchGraph(b, false)
	pool := NewPool(0)
	defer pool.Close()
	n := int(m.NumRows)
	k := NewSumVecMul(pool, m)
	pr := randVec(m.NumRows, 2)
	next := make([]float64, n)
	contrib := make([]float64, n)
	deg := make([]int64, n)
	for r := 0; r < n; r++ {
		deg[r] = m.Offsets[r+1] - m.Offsets[r]
	}
	contribPass := NewDense(pool, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			contrib[v] = DivDegree(0.7*pr[v], deg[v])
		}
	})
	iter := func() {
		contribPass.Run()
		k.AffineInto(next, contrib, 0.3, 1)
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
	pool := NewPool(0)
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

// BenchmarkBackendExpander is the persistent-claims sparse expansion
// (lowered CombBLAS SpMSpV / Giraph BFS unit).
func BenchmarkBackendExpander(b *testing.B) {
	m := benchGraph(b, true)
	pool := NewPool(0)
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exp := NewExpander(pool, m)
		exp.Claim(0)
		b.StartTimer()
		frontier := []uint32{0}
		for len(frontier) > 0 {
			frontier = exp.Expand(frontier, nil)
		}
	}
}
