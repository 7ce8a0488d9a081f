package backend

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// eachPool runs f on a serial pool and on one wider than a row loop needs:
// Sweep's contracts hold at any size.
func eachPool(t *testing.T, f func(t *testing.T, pool *Pool)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := NewPool(workers)
			defer pool.Close()
			f(t, pool)
		})
	}
}

// TestSweepTiles asserts a sweep covers [0,n) exactly once for grains
// above, below and astride n, including the default grain and empty cases.
func TestSweepTiles(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		for _, n := range []int{0, 1, 3, 100, 1000, 4096, 100_000} {
			for _, grain := range []int{-1, 0, 1, 7, 64, 1024, n + 1} {
				marks := make([]int32, n)
				NewSweep(pool, n, grain, func(_, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&marks[i], 1)
					}
				}).Run()
				for i, m := range marks {
					if m != 1 {
						t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, m)
					}
				}
			}
		}
	})
}

// TestSweepChunkLayout asserts chunk lo bounds are multiples of the grain
// rounded up to 64 — the property a body staging per-chunk results by its
// lo index (or writing whole bitset words) relies on for a deterministic
// layout under dynamic scheduling.
func TestSweepChunkLayout(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		n := 10_000
		for _, c := range []struct{ grain, want int }{{64, 64}, {100, 128}, {0, DefaultGrain}} {
			NewSweep(pool, n, c.grain, func(_, lo, hi int) {
				if lo%c.want != 0 {
					t.Errorf("grain %d: chunk lo %d not a multiple of %d", c.grain, lo, c.want)
				}
				if hi != lo+c.want && hi != n {
					t.Errorf("grain %d: chunk [%d,%d) is neither full-grain nor final", c.grain, lo, hi)
				}
			}).Run()
		}
	})
}

// TestSweepWorkerBounds asserts worker indices stay below pool.Workers(),
// the bound callers size scratch arrays with.
func TestSweepWorkerBounds(t *testing.T) {
	eachPool(t, func(t *testing.T, pool *Pool) {
		var covered atomic.Int64
		NewSweep(pool, 50_000, 16, func(worker, lo, hi int) {
			if worker < 0 || worker >= pool.Workers() {
				t.Errorf("worker index %d outside [0,%d)", worker, pool.Workers())
			}
			covered.Add(int64(hi - lo))
		}).Run()
		if covered.Load() != 50_000 {
			t.Errorf("covered %d of 50000", covered.Load())
		}
	})
}

// TestSweepStress hammers the atomic-cursor chunk claiming: chunks must
// tile [0,n) with no overlap even under contention, so the per-index
// writes are plain on purpose — if two workers ever claimed the same
// chunk, the race detector would fire and the exact-count check would
// fail.
func TestSweepStress(t *testing.T) {
	n, iters := 1<<17, 30
	if testing.Short() {
		n, iters = 1<<13, 8
	}
	eachPool(t, func(t *testing.T, pool *Pool) {
		covered := make([]int64, n)
		sweep := NewSweep(pool, n, 37, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++ // plain write: chunks are disjoint and joined
			}
		})
		for it := 0; it < iters; it++ {
			sweep.Run()
		}
		for i, c := range covered {
			if c != int64(iters) {
				t.Fatalf("index %d covered %d times, want %d", i, c, iters)
			}
		}
	})
}

// TestSweepScratchExclusive verifies the per-worker scratch contract
// combblas.SpGEMM and the native and graphlab triangle loops rely on: a
// worker index is owned by exactly one goroutine for the whole pass, so
// unsynchronized reads and writes of scratch[worker] across the worker's
// many chunks are safe.
func TestSweepScratchExclusive(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 20
	}
	n := 20_000
	eachPool(t, func(t *testing.T, pool *Pool) {
		for it := 0; it < iters; it++ {
			scratch := make([]int, pool.Workers())
			var total atomic.Int64
			NewSweep(pool, n, 53, func(w, lo, hi int) {
				scratch[w] += hi - lo // plain read-modify-write: slot w is exclusive
				total.Add(int64(hi - lo))
			}).Run()
			if total.Load() != int64(n) {
				t.Fatalf("iter %d: covered %d of %d", it, total.Load(), n)
			}
			sum := 0
			for _, s := range scratch {
				sum += s
			}
			if sum != n {
				t.Fatalf("iter %d: scratch sums to %d, want %d", it, sum, n)
			}
		}
	})
}
