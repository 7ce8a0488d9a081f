package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphmaze/internal/obs"
)

// Runner is the unit of work a Pool dispatches: a kernel that can
// process the half-open index range [lo, hi) on behalf of one worker.
// Kernels implement it with pointer receivers so the interface assignment
// in RunStatic/RunDynamic never allocates; a loop outside a hot path
// passes a closure as a RunnerFunc.
//
// The chunks of one dispatch must never wait on each other: a dispatch
// that finds the team busy runs all of them, one after another, on its
// caller's goroutine. For the same reason per-worker scratch belongs to
// the call, not to the pool: another caller's dispatch may be running the
// same worker indices at the same moment.
type Runner interface {
	RunChunk(worker, lo, hi int)
}

// RunnerFunc adapts a function to a Runner.
type RunnerFunc func(worker, lo, hi int)

// RunChunk implements Runner.
func (f RunnerFunc) RunChunk(worker, lo, hi int) { f(worker, lo, hi) }

// DefaultGrain is the chunk size RunDynamic uses when the caller passes
// grain <= 0. It is tuned for bodies costing tens of nanoseconds per index:
// large enough that the one atomic add per chunk is noise, small enough
// that a hub vertex's chunk does not serialize the tail. Kernels with heavy
// per-index cost should pass a smaller grain.
const DefaultGrain = 1024

// Pool mode constants: how bounds are handed to workers.
const (
	modeStatic  = iota // worker w owns [bounds[w], bounds[w+1])
	modeDynamic        // workers claim grain-sized chunks from an atomic cursor
)

// Pool is a persistent team of workers: every parallel loop in the module
// runs on one, from the backend kernels and served queries to graph
// construction, the RMAT generator and Giraph's modelled workers. A Pool
// parks its workers between dispatches, so an iterate-until-converged
// hot loop costs two channel hops per worker per pass and zero
// allocations.
//
// Worker 0 is the calling goroutine, so a 1-worker pool degenerates to a
// plain serial loop with no synchronization at all. A shared Pool is safe
// for concurrent callers: a dispatch takes the whole team when it is free
// and runs on its caller alone when it is not, instead of queueing behind
// the dispatch that holds it. Either way every chunk runs exactly once
// and a static range keeps its worker index, so which of the two happened
// never shows in a result.
type Pool struct {
	// mu is held by the dispatch that owns the team (and by Close).
	mu      sync.Mutex
	workers int
	// wake[w] (w >= 1) signals worker w that mode/runner/bounds are set;
	// the channel send/receive pair is the happens-before edge that
	// publishes those fields without per-field synchronization.
	wake []chan struct{}
	done chan struct{}

	mode   int
	runner Runner
	bounds []int
	cursor atomic.Int64
	limit  int
	grain  int
	closed bool

	// po is the observability attachment (nil when detached, the default).
	// An atomic pointer because SetRegistry may run while workers are parked
	// in serve; the handles inside are lock-free to use.
	po atomic.Pointer[poolObs]
}

// poolObs bundles the metrics a pool feeds once a registry is attached:
// dispatch wall-time and per-worker park-time histograms, a busy fraction
// gauge (team dispatch time / wall time since attach) and a count of the
// dispatches that ran on their caller. busyNS is only touched under p.mu
// (a team dispatch runs with it held).
type poolObs struct {
	dispatch *obs.Histogram
	park     *obs.Histogram
	busy     *obs.Gauge
	inline   *obs.Counter
	attached time.Time
	busyNS   int64
}

// SetRegistry attaches a metrics registry to the pool: every team
// dispatch records its wall time into backend.pool.dispatch_ns, each
// woken worker records how long it was parked into backend.pool.park_ns,
// backend.pool.busy_frac tracks the fraction of wall time the team spent
// dispatching, and backend.pool.inline counts the dispatches that found
// the team busy and ran on their caller. A traced run passes its tracer's
// registry, the server its own. A nil registry detaches; detached pools
// pay one atomic load per dispatch and per worker wake.
func (p *Pool) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		p.po.Store(nil)
		return
	}
	reg.Gauge("backend.pool.workers").Set(float64(p.workers))
	p.po.Store(&poolObs{
		dispatch: reg.Hist("backend.pool.dispatch_ns"),
		park:     reg.Hist("backend.pool.park_ns"),
		busy:     reg.Gauge("backend.pool.busy_frac"),
		inline:   reg.Counter("backend.pool.inline"),
		attached: time.Now(),
	})
}

// NewPool starts a pool with the given worker count; workers <= 0 means
// GOMAXPROCS. Callers own the pool and must Close it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		wake:    make([]chan struct{}, workers),
		done:    make(chan struct{}, workers),
	}
	for w := 1; w < workers; w++ {
		p.wake[w] = make(chan struct{})
		go p.serve(w, p.wake[w])
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close releases the parked worker goroutines. The pool must be idle.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for w := 1; w < p.workers; w++ {
		close(p.wake[w])
	}
}

func (p *Pool) serve(w int, wake chan struct{}) {
	// parked is when this worker last went idle; zero while detached so a
	// freshly attached registry does not credit the pre-attach idle stretch.
	var parked time.Time
	for range wake {
		if o := p.po.Load(); o != nil && !parked.IsZero() {
			o.park.Record(w, time.Since(parked).Nanoseconds())
		}
		p.work(w)
		p.done <- struct{}{}
		if p.po.Load() != nil {
			parked = time.Now()
		} else {
			parked = time.Time{}
		}
	}
}

func (p *Pool) work(w int) {
	switch p.mode {
	case modeStatic:
		lo, hi := p.bounds[w], p.bounds[w+1]
		if lo < hi {
			p.runner.RunChunk(w, lo, hi)
		}
	case modeDynamic:
		for {
			hi := int(p.cursor.Add(int64(p.grain)))
			lo := hi - p.grain
			if lo >= p.limit {
				return
			}
			if hi > p.limit {
				hi = p.limit
			}
			p.runner.RunChunk(w, lo, hi)
		}
	}
}

func (p *Pool) dispatch() {
	o := p.po.Load()
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	for w := 1; w < p.workers; w++ {
		p.wake[w] <- struct{}{}
	}
	defer p.join(o, start)
	p.work(0)
}

// join waits for workers 1…n−1 to finish the dispatch and records it. It
// is deferred, so when a chunk panics on the caller's goroutine (worker 0)
// the team still parks before it is released: a later dispatch must not
// read this one's done signals as its own.
func (p *Pool) join(o *poolObs, start time.Time) {
	for w := 1; w < p.workers; w++ {
		<-p.done
	}
	if o != nil {
		d := time.Since(start).Nanoseconds()
		o.dispatch.Record(0, d)
		o.busyNS += d
		if el := time.Since(o.attached).Nanoseconds(); el > 0 {
			o.busy.Set(float64(o.busyNS) / float64(el))
		}
	}
}

// release ends a team dispatch: it drops the runner, so the pool keeps no
// kernel reachable between dispatches, and frees the team. It is deferred
// from the moment TryLock succeeds, so a chunk that panics on the caller's
// goroutine, and a caller that recovers it, leave the team free for the
// next dispatch and for Close.
func (p *Pool) release() {
	p.runner = nil
	p.mu.Unlock()
}

// ranInline counts a dispatch that found the team busy.
func (p *Pool) ranInline() {
	if o := p.po.Load(); o != nil {
		o.inline.Add(1)
	}
}

// RunStatic runs r over the ranges described by bounds (len Workers()+1,
// as produced by graph.OffsetSplits or EvenSplits): worker w gets
// [bounds[w], bounds[w+1]). Deterministic ownership — the same worker
// index always sees the same range for the same bounds. When another
// dispatch holds the team the caller runs the ranges itself, in ascending
// order and each under its own worker index, so per-worker state groups
// exactly as it does on the team.
func (p *Pool) RunStatic(r Runner, bounds []int) {
	if !p.mu.TryLock() {
		p.ranInline()
		for w := 0; w+1 < len(bounds); w++ {
			if lo, hi := bounds[w], bounds[w+1]; lo < hi {
				r.RunChunk(w, lo, hi)
			}
		}
		return
	}
	defer p.release()
	p.mode = modeStatic
	p.runner = r
	p.bounds = bounds
	p.dispatch()
}

// RunDynamic runs r over [0, n) in grain-sized chunks claimed from an
// atomic cursor (work-stealing for irregular per-chunk cost). The grain
// is rounded up to a multiple of 64 so each chunk owns disjoint words of
// any vertex-indexed bitset, letting kernels use plain stores. When
// another dispatch holds the team the caller runs the chunks itself, in
// ascending order as worker 0; which worker claims a chunk is arbitrary
// on the team too.
func (p *Pool) RunDynamic(r Runner, n, grain int) {
	if grain <= 0 {
		grain = DefaultGrain
	}
	grain = (grain + 63) &^ 63
	if !p.mu.TryLock() {
		p.ranInline()
		for lo := 0; lo < n; lo += grain {
			r.RunChunk(0, lo, min(lo+grain, n))
		}
		return
	}
	defer p.release()
	p.mode = modeDynamic
	p.runner = r
	p.limit = n
	p.grain = grain
	p.cursor.Store(0)
	p.dispatch()
}

// EvenSplits returns k+1 bounds cutting [0,n) into k contiguous ranges
// whose sizes differ by at most one; the first n%k ranges hold the extra
// index, and when n < k the last k-n ranges are empty.
func EvenSplits(n, k int) []int {
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	base, rem := n/k, n%k
	lo := 0
	for w := 0; w < k; w++ {
		bounds[w] = lo
		lo += base
		if w < rem {
			lo++
		}
	}
	bounds[k] = n
	return bounds
}
