package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// The microbenchmarks model the skew-sensitive shape all the hot kernels
// share: per-index work proportional to a power-law degree sequence, with
// a handful of hubs holding a large fraction of the total. Static
// equal-count chunking strands the hub chunk's worker far behind the
// rest; the edge-balanced scheduler keeps workers level. Run
// via `go test -bench Par` (GOMAXPROCS ≥ 4 for meaningful numbers).

const benchVertices = 1 << 16

var benchWorkload struct {
	once    sync.Once
	degs    []int64
	offsets []int64
}

func skewedWorkload() ([]int64, []int64) {
	benchWorkload.once.Do(func() {
		rng := rand.New(rand.NewSource(42))
		degs := make([]int64, benchVertices)
		for i := range degs {
			// Pareto-ish tail plus rare huge hubs, front-loaded so static
			// contiguous chunks are maximally lopsided (RMAT graphs without
			// vertex permutation have exactly this sorted-by-id skew).
			degs[i] = 1 + int64(rng.ExpFloat64()*3)
			if i < benchVertices/256 {
				degs[i] += int64(rng.Intn(4096))
			}
		}
		offsets := make([]int64, len(degs)+1)
		for i, d := range degs {
			offsets[i+1] = offsets[i] + d
		}
		benchWorkload.degs = degs
		benchWorkload.offsets = offsets
	})
	return benchWorkload.degs, benchWorkload.offsets
}

// simulateVertex burns work proportional to the vertex's degree, touching
// a checksum so the loop cannot be optimized away.
func simulateVertex(deg int64, sink *int64) {
	var s int64
	for e := int64(0); e < deg; e++ {
		s += e ^ (s << 1)
	}
	*sink += s
}

func runSkewed(b *testing.B, loop func(n int, body func(lo, hi int))) {
	degs, _ := skewedWorkload()
	var total atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop(len(degs), func(lo, hi int) {
			var sink int64
			for v := lo; v < hi; v++ {
				simulateVertex(degs[v], &sink)
			}
			total.Add(sink)
		})
	}
	_ = total.Load()
}

// BenchmarkParSkewedStatic is the baseline: equal vertex counts per
// worker, hubs and all.
func BenchmarkParSkewedStatic(b *testing.B) {
	runSkewed(b, For)
}

// BenchmarkParSkewedOffsets splits by the prefix-sum array so every
// worker gets an equal edge share.
func BenchmarkParSkewedOffsets(b *testing.B) {
	_, offsets := skewedWorkload()
	runSkewed(b, func(n int, body func(lo, hi int)) { ForOffsets(offsets, body) })
}
