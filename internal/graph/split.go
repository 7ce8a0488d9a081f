package graph

import (
	"sort"

	"graphmaze/internal/par"
)

// OffsetSplits returns k+1 vertex boundaries over a CSR prefix-sum array
// (offsets has one entry per vertex plus a final total), chosen so each
// range [b[i], b[i+1]) holds roughly total/k edges. Boundaries come from
// a binary search on the offsets the CSR already stores, so the split
// costs O(k log n) time and no extra memory. Bounds are non-decreasing;
// a hub vertex that exceeds the per-part budget leaves later parts empty
// rather than splitting the vertex.
func OffsetSplits(offsets []int64, k int) []int {
	n := max(len(offsets)-1, 0)
	k = max(k, 1)
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
		bounds[p] = max(v, bounds[p-1])
	}
	return bounds
}

// forEdgeBalanced runs body over the vertex range [0, len(offsets)-1) in
// up to GOMAXPROCS contiguous ranges holding roughly equal numbers of
// *edges* (OffsetSplits on the prefix sums), one worker of a pool started
// for the call per range. On power-law graphs an equal-vertex split hands
// one worker all the hubs; the edge-balanced split equalizes the per-edge
// work (paper §3.1). Every vertex is in exactly one range and the call
// joins before returning.
func forEdgeBalanced(offsets []int64, body func(lo, hi int)) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	pool := par.NewPool(min(par.NumWorkers(), n))
	defer pool.Close()
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) { body(lo, hi) }), OffsetSplits(offsets, pool.Workers()))
}
