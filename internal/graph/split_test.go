package graph

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// offsetsFromDegrees builds a CSR-style prefix-sum array.
func offsetsFromDegrees(degs []int64) []int64 {
	offsets := make([]int64, len(degs)+1)
	for i, d := range degs {
		offsets[i+1] = offsets[i] + d
	}
	return offsets
}

// TestForEdgeBalancedTiles covers the edge-balanced splitter's corner
// cases: empty-vertex runs, n=0, a single vertex owning every edge, an
// all-zero offsets array, and random power-law-ish degree sequences.
func TestForEdgeBalancedTiles(t *testing.T) {
	cases := map[string][]int64{
		"empty":         {},
		"oneVertex":     {5},
		"zeroEdges":     make([]int64, 100),
		"hubOwnsAll":    append(append(make([]int64, 0, 101), 1_000_000), make([]int64, 100)...),
		"hubAtEnd":      append(make([]int64, 100), 1_000_000),
		"zeroRuns":      {0, 0, 0, 7, 0, 0, 0, 9, 0, 0, 0, 0, 3, 0, 0},
		"uniform":       {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
		"singleZeroDeg": {0},
	}
	rng := rand.New(rand.NewSource(7))
	skewed := make([]int64, 5000)
	for i := range skewed {
		skewed[i] = int64(rng.ExpFloat64() * 4)
		if rng.Intn(500) == 0 {
			skewed[i] += int64(rng.Intn(10_000))
		}
	}
	cases["skewed"] = skewed

	for name, degs := range cases {
		offsets := offsetsFromDegrees(degs)
		n := len(degs)
		marks := make([]int32, n)
		forEdgeBalanced(offsets, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("%s: bad chunk [%d,%d)", name, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("%s: vertex %d visited %d times", name, i, m)
			}
		}
	}
}

// TestOffsetSplitsBalance asserts the split quality bound: every part
// holds at most total/k + maxDegree edges (cuts move by whole vertices,
// so one vertex's degree is the unavoidable slack).
func TestOffsetSplitsBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	degs := make([]int64, 20_000)
	var maxDeg int64
	for i := range degs {
		degs[i] = int64(rng.Intn(8))
		if rng.Intn(1000) == 0 {
			degs[i] = int64(1000 + rng.Intn(5000))
		}
		if degs[i] > maxDeg {
			maxDeg = degs[i]
		}
	}
	offsets := offsetsFromDegrees(degs)
	total := offsets[len(offsets)-1]
	for _, k := range []int{1, 2, 3, 8, 17} {
		bounds := OffsetSplits(offsets, k)
		if len(bounds) != k+1 || bounds[0] != 0 || bounds[k] != len(degs) {
			t.Fatalf("k=%d: bad bounds %v", k, bounds[:min(len(bounds), 8)])
		}
		for p := 0; p < k; p++ {
			if bounds[p] > bounds[p+1] {
				t.Fatalf("k=%d: bounds not monotone at %d", k, p)
			}
			part := offsets[bounds[p+1]] - offsets[bounds[p]]
			if limit := total/int64(k) + maxDeg + 1; part > limit {
				t.Errorf("k=%d part %d: %d edges exceeds %d", k, p, part, limit)
			}
		}
	}
}

// TestForEdgeBalancedStress runs the edge-balanced splitter over a skewed
// degree sequence with plain per-vertex writes, mirroring ApplyDelta's
// scatter (each vertex written by exactly one worker). It exists to run
// under -race; -short scales it down.
func TestForEdgeBalancedStress(t *testing.T) {
	n, iters := 1<<15, 40
	if testing.Short() {
		n, iters = 1<<12, 10
	}
	degs := make([]int64, n)
	for i := range degs {
		degs[i] = int64(i % 7)
		if i%1000 == 0 {
			degs[i] = 50_000 // hubs: force lopsided vertex ranges
		}
	}
	offsets := offsetsFromDegrees(degs)
	acc := make([]int64, n)
	for it := 0; it < iters; it++ {
		forEdgeBalanced(offsets, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i]++ // plain write: ranges tile [0,n) and the loop joins
			}
		})
	}
	for i, v := range acc {
		if v != int64(iters) {
			t.Fatalf("acc[%d] = %d, want %d", i, v, iters)
		}
	}
}
