package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestForWorkersChunkBalance asserts the static splitter's chunks never
// differ in size by more than one: the old ceil-based math made chunk
// sizes lumpy whenever n % workers != 0, which systematically skewed one
// worker's share.
func TestForWorkersChunkBalance(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7, 8, 16} {
		for _, n := range []int{workers, workers + 1, 100, 101, 1000, 1023, 1024, 1025} {
			var mu sleepless
			var sizes []int
			ForWorkers(workers, n, func(lo, hi int) {
				mu.Lock()
				sizes = append(sizes, hi-lo)
				mu.Unlock()
			})
			checkBalanced(t, "ForWorkers", workers, n, sizes)

			sizes = nil
			ForWorkersIndexed(workers, n, func(_, lo, hi int) {
				mu.Lock()
				sizes = append(sizes, hi-lo)
				mu.Unlock()
			})
			checkBalanced(t, "ForWorkersIndexed", workers, n, sizes)
		}
	}
}

func checkBalanced(t *testing.T, name string, workers, n int, sizes []int) {
	t.Helper()
	want := workers
	if n < workers {
		want = n
	}
	if len(sizes) != want {
		t.Fatalf("%s(workers=%d, n=%d): %d chunks, want %d", name, workers, n, len(sizes), want)
	}
	minSz, maxSz, total := sizes[0], sizes[0], 0
	for _, s := range sizes {
		if s < minSz {
			minSz = s
		}
		if s > maxSz {
			maxSz = s
		}
		total += s
	}
	if total != n {
		t.Fatalf("%s(workers=%d, n=%d): chunks cover %d", name, workers, n, total)
	}
	if maxSz-minSz > 1 {
		t.Errorf("%s(workers=%d, n=%d): chunk sizes %v differ by %d, want ≤1", name, workers, n, sizes, maxSz-minSz)
	}
}

// sleepless is a tiny test-local spinlock so chunk-recording callbacks
// don't serialize through channel machinery.
type sleepless struct{ state int32 }

func (l *sleepless) Lock() {
	for !atomic.CompareAndSwapInt32(&l.state, 0, 1) {
	}
}
func (l *sleepless) Unlock() { atomic.StoreInt32(&l.state, 0) }

// offsetsFromDegrees builds a CSR-style prefix-sum array.
func offsetsFromDegrees(degs []int64) []int64 {
	offsets := make([]int64, len(degs)+1)
	for i, d := range degs {
		offsets[i+1] = offsets[i] + d
	}
	return offsets
}

// TestForOffsetsTiles covers the edge-balanced splitter's corner cases:
// empty-vertex runs, n=0, a single vertex owning every edge, an all-zero
// offsets array, and random power-law-ish degree sequences.
func TestForOffsetsTiles(t *testing.T) {
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
		ForOffsets(offsets, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Fatalf("%s: bad chunk [%d,%d)", name, lo, hi)
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
