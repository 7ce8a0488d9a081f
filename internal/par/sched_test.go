package par

import (
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
