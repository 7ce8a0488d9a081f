// Package par is the module's one execution substrate: a persistent
// worker [Pool] that every parallel loop runs on (DESIGN.md §8). The
// backend kernels and every served query borrow the pool core.Exec.Local
// or the server hands them; graph construction, the transpose and
// ApplyDelta's scatter (internal/graph, which backend imports), the RMAT
// generator and Giraph's modelled worker threads (paper §5.4) start one
// for their call.
// A loop picks static bounds ([Pool.RunStatic], a stable worker index per
// range, [EvenSplits] or an edge-balanced split) or grain-sized dynamic
// chunks ([Pool.RunDynamic]); the pool's metrics keep their
// backend.pool.* names.
package par

import "runtime"

// For splits [0,n) into contiguous chunks of equal index counts across up
// to GOMAXPROCS workers of a pool started for the call, runs body(lo,hi)
// on each and returns when every chunk has run.
func For(n int, body func(lo, hi int)) {
	pool := NewPool(max(1, min(NumWorkers(), n)))
	defer pool.Close()
	pool.RunStatic(RunnerFunc(func(_, lo, hi int) { body(lo, hi) }), EvenSplits(n, pool.Workers()))
}

// NumWorkers reports the width of the GOMAXPROCS-wide loops.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }
