package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultGrain is the chunk size the dynamic loops use when the caller
// passes grain <= 0. It is tuned for bodies costing tens of nanoseconds
// per index: large enough that the one atomic add per chunk is noise,
// small enough that a hub vertex's chunk does not serialize the tail.
// Kernels with heavy per-index cost should pass a smaller grain.
const DefaultGrain = 1024

// serialCutoverChunks is the minimum number of grain-sized chunks worth
// fanning out for: below it the loop runs serially, because spawning
// goroutines for a handful of chunks costs more than the imbalance it
// could fix.
const serialCutoverChunks = 4

// ForDynamicIndexed runs body over [0,n) in fixed-grain chunks that
// workers claim off a shared atomic counter — cheap work-stealing without
// per-worker deques. Chunk boundaries are the multiples of grain, so a
// body that stages results by its lo index gets a deterministic layout
// regardless of which worker claims which chunk. grain <= 0 selects
// DefaultGrain; loops under serialCutoverChunks grains run serially. The
// body receives the executing worker's index (below NumWorkers()), for
// kernels that reuse per-worker scratch (a SpGEMM accumulator map) across
// the many small chunks one worker claims.
func ForDynamicIndexed(n, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	sc := sched.Load()
	if grain <= 0 {
		grain = DefaultGrain
	}
	chunks := (n + grain - 1) / grain
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 || chunks < serialCutoverChunks {
		start := time.Time{}
		if sc != nil {
			start = time.Now()
		}
		body(0, 0, n)
		if sc != nil {
			observeChunk(sc, 0, 0, n, start)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if sc == nil {
				for {
					hi := int(next.Add(int64(grain)))
					lo := hi - grain
					if lo >= n {
						return
					}
					if hi > n {
						hi = n
					}
					body(w, lo, hi)
				}
			}
			for {
				// Claim latency: from asking the shared cursor for a chunk
				// to entering the body. Under contention the Add's cache-line
				// ping-pong shows up here and nowhere else.
				claimStart := time.Now()
				hi := int(next.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				start := time.Now()
				sc.ClaimNS.Record(w, start.Sub(claimStart).Nanoseconds())
				body(w, lo, hi)
				observeChunk(sc, w, lo, hi, start)
			}
		}(w)
	}
	wg.Wait()
}
