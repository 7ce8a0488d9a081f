// Package par is the static-split fork-join the one-shot paths share:
// graph construction (internal/graph), the framework worker models
// (Giraph's capped workers), cluster-mode kernels and the native ablation
// baseline.
// Everything a single-node engine call or a served query runs executes on a
// backend.Pool instead (DESIGN.md §8). Two loop shapes:
//
//   - For / ForWorkers: static contiguous chunks with equal vertex
//     counts. Right for loops whose per-index cost is uniform.
//   - ForOffsets: static contiguous chunks with equal *edge* counts,
//     split on a CSR prefix-sum array. Right for per-vertex loops whose
//     cost is proportional to degree on power-law graphs, where equal
//     vertex counts are wildly imbalanced (paper §3.1).
//
// Both tile [0,n) exactly once, join before returning, and fall back to a
// serial call when fan-out would cost more than it saves. Loops with
// unpredictable per-index cost claim chunks dynamically on a pool
// (backend.NewSweep).
package par

import (
	"runtime"
	"sync"
	"time"
)

// For splits [0,n) into contiguous chunks across up to GOMAXPROCS
// goroutines and runs body(lo,hi) on each.
func For(n int, body func(lo, hi int)) {
	ForWorkers(runtime.GOMAXPROCS(0), n, body)
}

// ForWorkersIndexed is ForWorkers with the executing worker's index passed
// to the body — for callers that keep per-worker staging areas.
func ForWorkersIndexed(workers, n int, body func(worker, lo, hi int)) {
	sc := sched.Load()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			start := time.Time{}
			if sc != nil {
				start = time.Now()
			}
			body(0, 0, n)
			if sc != nil {
				observeChunk(sc, 0, 0, n, start)
			}
		}
		return
	}
	var wg sync.WaitGroup
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			start := time.Time{}
			if sc != nil {
				start = time.Now()
			}
			body(w, lo, hi)
			if sc != nil {
				observeChunk(sc, w, lo, hi, start)
			}
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForWorkers is For with an explicit worker cap — engines that model a
// constrained runtime (Giraph's 4 workers per node) pass their limit.
// The remainder of n/workers is spread over the first n%workers chunks,
// so chunk sizes never differ by more than one.
func ForWorkers(workers, n int, body func(lo, hi int)) {
	ForWorkersIndexed(workers, n, func(_, lo, hi int) { body(lo, hi) })
}

// NumWorkers reports the width of the GOMAXPROCS-wide loops, which is also
// the default size of a backend.Pool.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }
