package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphmaze/internal/obs"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		var visited int64
		For(n, func(lo, hi int) {
			atomic.AddInt64(&visited, int64(hi-lo))
		})
		if visited != int64(n) {
			t.Errorf("n=%d: visited %d", n, visited)
		}
	}
}

func TestForEachIndexOnce(t *testing.T) {
	n := 5000
	marks := make([]int32, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

// TestForSerial: at GOMAXPROCS 1, For runs the body once over the full
// range.
func TestForSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var calls int
	For(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("range [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

// chunkRecorder records, per worker index, the one static range a
// dispatch handed that worker; the per-slot writes are plain.
type chunkRecorder struct {
	calls []int32
	spans [][2]int
}

func newChunkRecorder(workers int) *chunkRecorder {
	return &chunkRecorder{calls: make([]int32, workers), spans: make([][2]int, workers)}
}

func (r *chunkRecorder) RunChunk(worker, lo, hi int) {
	r.calls[worker]++
	r.spans[worker] = [2]int{lo, hi}
}

// TestRunStaticSerial: a 1-worker pool runs the body once, on the caller,
// over the full range under worker index 0.
func TestRunStaticSerial(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	r := newChunkRecorder(1)
	pool.RunStatic(r, EvenSplits(10, pool.Workers()))
	if r.calls[0] != 1 || r.spans[0] != [2]int{0, 10} {
		t.Errorf("serial dispatch: %d calls, last range %v; want one call over [0,10)", r.calls[0], r.spans[0])
	}
}

// TestRunStaticCapped: a 3-worker pool runs at most 3 chunks per dispatch.
func TestRunStaticCapped(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	var chunks int64
	pool.RunStatic(RunnerFunc(func(_, _, _ int) {
		atomic.AddInt64(&chunks, 1)
	}), EvenSplits(100, pool.Workers()))
	if chunks > 3 {
		t.Errorf("chunks = %d, want ≤ 3", chunks)
	}
}

// TestRunStaticDistinctWorkers: on a 4-worker pool each worker index in
// [0,4) runs exactly once per dispatch, over the range EvenSplits gave it.
func TestRunStaticDistinctWorkers(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	bounds := EvenSplits(401, pool.Workers())
	r := newChunkRecorder(4)
	pool.RunStatic(r, bounds)
	for w := 0; w < 4; w++ {
		if r.calls[w] != 1 || r.spans[w] != [2]int{bounds[w], bounds[w+1]} {
			t.Errorf("worker %d: %d calls, range %v; want one call over [%d,%d)", w, r.calls[w], r.spans[w], bounds[w], bounds[w+1])
		}
	}
}

// TestRunStaticEmpty: an empty range runs no body.
func TestRunStaticEmpty(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	r := newChunkRecorder(4)
	pool.RunStatic(r, EvenSplits(0, pool.Workers()))
	for w, c := range r.calls {
		if c != 0 {
			t.Errorf("worker %d ran %d times over an empty range", w, c)
		}
	}
}

// TestRunStaticMoreWorkersThanItems: with fewer indices than workers the
// first n workers take one index each and the rest run nothing.
func TestRunStaticMoreWorkersThanItems(t *testing.T) {
	pool := NewPool(16)
	defer pool.Close()
	r := newChunkRecorder(16)
	pool.RunStatic(r, EvenSplits(3, pool.Workers()))
	for w, c := range r.calls {
		want := int32(0)
		if w < 3 {
			want = 1
		}
		if c != want || (c == 1 && r.spans[w] != [2]int{w, w + 1}) {
			t.Errorf("worker %d: %d calls, range %v", w, c, r.spans[w])
		}
	}
}

// TestRunStaticSurvivesAPanickingChunk and
// TestRunDynamicSurvivesAPanickingChunk: a chunk that panics on worker 0,
// the caller's goroutine, reaches a caller that recovers it (as
// Server.Handler does), and the team comes back free.
func TestRunStaticSurvivesAPanickingChunk(t *testing.T) {
	survivesAPanickingChunk(t, func(p *Pool, r Runner, n int) { p.RunStatic(r, EvenSplits(n, p.Workers())) })
}

func TestRunDynamicSurvivesAPanickingChunk(t *testing.T) {
	survivesAPanickingChunk(t, func(p *Pool, r Runner, n int) { p.RunDynamic(r, n, 64) })
}

// survivesAPanickingChunk panics worker 0's first chunk of a team
// dispatch, recovers it, and then requires the next dispatch to run on the
// team (backend.pool.inline stays 0) with every index exactly once, and
// Close to return. The other workers' chunks wait until worker 0 has
// started, so worker 0 always holds a chunk to panic in; a waiting chunk
// is safe only because a fresh pool's first dispatch gets the team.
func survivesAPanickingChunk(t *testing.T, run func(p *Pool, r Runner, n int)) {
	const n = 8 * 64
	pool := NewPool(4)
	reg := obs.NewRegistry()
	pool.SetRegistry(reg)
	started := make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("worker 0's panic did not reach the caller")
			}
		}()
		run(pool, RunnerFunc(func(w, _, _ int) {
			if w == 0 {
				close(started)
				panic("chunk failure")
			}
			<-started
		}), n)
	}()

	var hits [n]atomic.Int32
	run(pool, RunnerFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}), n)
	if inline := reg.Counter("backend.pool.inline").Value(); inline != 0 {
		t.Fatalf("the dispatch after a recovered panic ran on its caller (backend.pool.inline = %d): the team is still held", inline)
	}
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times after the recovered panic, want 1", i, c)
		}
	}
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a recovered panic")
	}
}
