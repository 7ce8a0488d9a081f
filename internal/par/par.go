// Package par is the static fork-join below backend: graph construction
// and ApplyDelta's scatter (internal/graph, which backend imports, so it
// cannot borrow a backend.Pool) and Giraph's modelled worker threads
// (internal/giraph, paper §5.4). Everything at or above backend — every
// engine kernel and every served query — runs on a backend.Pool
// (DESIGN.md §8). For and ForWorkers split [0,n) into static contiguous
// chunks with equal index counts, run one goroutine per chunk (a single
// chunk runs on the caller), and join before returning.
package par

import (
	"runtime"
	"sync"
)

// For splits [0,n) into contiguous chunks across up to GOMAXPROCS
// goroutines and runs body(lo,hi) on each.
func For(n int, body func(lo, hi int)) {
	ForWorkers(runtime.GOMAXPROCS(0), n, body)
}

// ForWorkersIndexed is ForWorkers with the executing worker's index passed
// to the body — for callers that keep per-worker staging areas.
func ForWorkersIndexed(workers, n int, body func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, 0, n)
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
			body(w, lo, hi)
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

// NumWorkers reports the width of the GOMAXPROCS-wide loops.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }
