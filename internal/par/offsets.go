package par

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// OffsetSplits returns k+1 vertex boundaries over a CSR prefix-sum array
// (offsets has one entry per vertex plus a final total), chosen so each
// range [b[i], b[i+1]) holds roughly total/k edges. Boundaries come from
// a binary search on the offsets the CSR already stores, so the split
// costs O(k log n) time and no extra memory. Bounds are non-decreasing;
// a hub vertex that exceeds the per-part budget leaves later parts empty
// rather than splitting the vertex.
func OffsetSplits(offsets []int64, k int) []int {
	n := len(offsets) - 1
	if n < 0 {
		n = 0
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	bounds[k] = n
	if n == 0 {
		return bounds
	}
	base := offsets[0]
	total := offsets[n] - base
	for p := 1; p < k; p++ {
		target := base + total*int64(p)/int64(k)
		v := sort.Search(n, func(v int) bool { return offsets[v] >= target })
		if v < bounds[p-1] {
			v = bounds[p-1]
		}
		bounds[p] = v
	}
	return bounds
}

// ForOffsets runs body over the vertex range [0, len(offsets)-1) in
// contiguous chunks holding roughly equal numbers of *edges*, using the
// CSR prefix-sum array to place the cuts. This is the paper's §3.1
// native partitioning choice: on power-law graphs an equal-vertex split
// hands one worker all the hubs, while the edge-balanced split equalizes
// the actual per-edge work. A graph with no edges falls back to the
// equal-vertex split.
func ForOffsets(offsets []int64, body func(lo, hi int)) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if sc := sched.Load(); sc != nil {
			start := time.Now()
			body(0, n)
			observeChunk(sc, 0, 0, n, start)
			return
		}
		body(0, n)
		return
	}
	if offsets[n] == offsets[0] {
		ForWorkers(workers, n, body)
		return
	}
	sc := sched.Load()
	bounds := OffsetSplits(offsets, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			start := time.Time{}
			if sc != nil {
				start = time.Now()
			}
			body(lo, hi)
			if sc != nil {
				observeChunk(sc, w, lo, hi, start)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
