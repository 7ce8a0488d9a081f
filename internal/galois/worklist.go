// Package galois reimplements the Galois programming model (paper §3):
// algorithms are parallel iterations over work items with dynamic work
// creation, scheduled by the runtime over chunked per-thread worklists
// with stealing. Galois is single-node (Table 2) but, because partitioning
// is flexible and updates are immediately globally visible, it is the only
// framework besides native code that can express true SGD (§3.2).
package galois

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunkSize is the granularity of work distribution; Galois uses chunked
// FIFOs to amortize scheduling overhead.
const chunkSize = 64

// Worklist is a concurrent chunked work queue: producers push chunks,
// idle workers steal them.
type Worklist[T any] struct {
	mu     sync.Mutex
	chunks [][]T
}

// Push appends one item (chunk-buffered by the caller's context in
// ForEach; direct pushes create single-chunk entries).
func (w *Worklist[T]) Push(item T) {
	w.mu.Lock()
	n := len(w.chunks)
	if n > 0 && len(w.chunks[n-1]) < chunkSize && cap(w.chunks[n-1]) > len(w.chunks[n-1]) {
		w.chunks[n-1] = append(w.chunks[n-1], item)
	} else {
		c := make([]T, 1, chunkSize)
		c[0] = item
		w.chunks = append(w.chunks, c)
	}
	w.mu.Unlock()
}

// PushChunk appends a batch.
func (w *Worklist[T]) PushChunk(items []T) {
	if len(items) == 0 {
		return
	}
	w.mu.Lock()
	w.chunks = append(w.chunks, items)
	w.mu.Unlock()
}

// pop steals one chunk.
func (w *Worklist[T]) pop() ([]T, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.chunks)
	if n == 0 {
		return nil, false
	}
	c := w.chunks[n-1]
	w.chunks = w.chunks[:n-1]
	return c, true
}

// Empty reports whether no work remains queued.
func (w *Worklist[T]) Empty() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.chunks) == 0
}

// Len reports the number of queued items.
func (w *Worklist[T]) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.chunks {
		n += len(c)
	}
	return n
}

// Ctx is a work item's execution context: Push schedules new work.
type Ctx[T any] struct {
	local []T
	list  *Worklist[T]
}

// Push schedules item for execution in this ForEach (autonomous
// scheduling: it may run in any order relative to existing work).
func (c *Ctx[T]) Push(item T) {
	c.local = append(c.local, item)
	if len(c.local) >= chunkSize {
		c.list.PushChunk(c.local)
		c.local = make([]T, 0, chunkSize)
	}
}

func (c *Ctx[T]) flush() {
	if len(c.local) > 0 {
		c.list.PushChunk(c.local)
		c.local = nil
	}
}

// ForEach processes the initial items and everything pushed during
// execution, in unspecified order, across GOMAXPROCS workers — Galois's
// autonomous scheduler.
func ForEach[T any](initial []T, body func(item T, ctx *Ctx[T])) {
	list := &Worklist[T]{}
	for lo := 0; lo < len(initial); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(initial) {
			hi = len(initial)
		}
		chunk := make([]T, hi-lo)
		copy(chunk, initial[lo:hi])
		list.PushChunk(chunk)
	}
	workers := runtime.GOMAXPROCS(0)
	var active int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx[T]{list: list}
			for {
				chunk, ok := list.pop()
				if !ok {
					// Termination: no queued work and no worker mid-chunk
					// that could still produce more.
					if atomic.LoadInt64(&active) == 0 {
						return
					}
					runtime.Gosched()
					continue
				}
				atomic.AddInt64(&active, 1)
				for _, item := range chunk {
					body(item, ctx)
				}
				ctx.flush()
				atomic.AddInt64(&active, -1)
			}
		}()
	}
	wg.Wait()
}

// ForEachBulk is the bulk-synchronous executor (the paper's Algorithm 3
// uses it for BFS): work pushed during round k runs in round k+1, with a
// barrier between rounds. It returns the number of rounds executed.
func ForEachBulk[T any](initial []T, body func(item T, push func(T))) int {
	current := initial
	rounds := 0
	for len(current) > 0 {
		rounds++
		var mu sync.Mutex
		var next []T
		workers := runtime.GOMAXPROCS(0)
		if workers > len(current) {
			workers = len(current)
		}
		var wg sync.WaitGroup
		chunk := (len(current) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(current) {
				hi = len(current)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(items []T) {
				defer wg.Done()
				var local []T
				for _, item := range items {
					body(item, func(t T) { local = append(local, t) })
				}
				if len(local) > 0 {
					mu.Lock()
					next = append(next, local...)
					mu.Unlock()
				}
			}(current[lo:hi])
		}
		wg.Wait()
		current = next
	}
	return rounds
}
