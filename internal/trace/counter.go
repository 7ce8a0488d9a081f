package trace

import (
	"runtime"
	"sync/atomic"
)

// paddedInt64 keeps each worker's lane on its own cache line so concurrent
// Adds from different workers never false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a named monotonic counter with per-worker padded lanes. Hot
// loops Add into their own lane (indexed by worker id); readers sum the
// lanes. The nil Counter is the disabled mode: Add costs one pointer
// check and Value reports zero.
type Counter struct {
	name  string
	mask  uint32
	lanes []paddedInt64
}

// laneCount rounds the host's parallelism up to a power of two so the
// worker→lane map is a mask, not a modulo.
func laneCount() int {
	n := runtime.GOMAXPROCS(0)
	k := 1
	for k < n {
		k <<= 1
	}
	return k
}

func newCounter(name string) *Counter {
	k := laneCount()
	return &Counter{name: name, mask: uint32(k - 1), lanes: make([]paddedInt64, k)}
}

// Name reports the counter's registration name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add accumulates delta into worker's lane. Worker ids beyond the lane
// count wrap by the power-of-two mask — worker w and worker w+laneCount
// share a lane and their Adds interleave atomically on the same word.
// Correctness never depends on lane placement (Value sums every lane, so
// it always equals the sum of all deltas; TestCounterAliasedWorkersExact
// pins this under -race); only the scaling benefit of private lanes
// degrades when callers alias.
func (c *Counter) Add(worker int, delta int64) {
	if c == nil {
		return
	}
	c.lanes[uint32(worker)&c.mask].v.Add(delta)
}

// Inc is Add(worker, 1).
func (c *Counter) Inc(worker int) { c.Add(worker, 1) }

// Value sums all lanes.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.lanes {
		total += c.lanes[i].v.Load()
	}
	return total
}

// Lanes returns a snapshot of the per-worker lane values.
func (c *Counter) Lanes() []int64 {
	if c == nil {
		return nil
	}
	out := make([]int64, len(c.lanes))
	for i := range c.lanes {
		out[i] = c.lanes[i].v.Load()
	}
	return out
}

// Counter returns the tracer's counter with the given name, creating it on
// first use. Returns nil — the disabled counter — on the nil tracer, so
// callers cache the result and Add unconditionally.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counterLocked(name)
}

func (t *Tracer) counterLocked(name string) *Counter {
	if c, ok := t.counters[name]; ok {
		return c
	}
	c := newCounter(name)
	t.counters[name] = c
	t.order = append(t.order, name)
	// Mirror the counter into the unified registry so exposition sees it
	// alongside gauges and histograms; Value is a lock-free lane sum, safe
	// to call from any sampler.
	t.reg.CounterFunc(name, c.Value)
	return c
}

// SchedCounters bundles the scheduling-layer counters par's loops feed:
// chunks claimed, loop indices processed, and busy nanoseconds, each with
// one lane per worker so load imbalance is readable straight from the
// lanes.
type SchedCounters struct {
	// Chunks counts chunks claimed (one per body invocation).
	Chunks *Counter
	// Items counts loop indices processed (hi-lo per chunk).
	Items *Counter
	// BusyNS counts nanoseconds spent inside loop bodies.
	BusyNS *Counter
}

// Sched returns the tracer's scheduling counter bundle ("par.chunks",
// "par.items", "par.busy_ns"), creating it on first use. Nil on the
// disabled tracer.
func (t *Tracer) Sched() *SchedCounters {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sched == nil {
		t.sched = &SchedCounters{
			Chunks: t.counterLocked("par.chunks"),
			Items:  t.counterLocked("par.items"),
			BusyNS: t.counterLocked("par.busy_ns"),
		}
	}
	return t.sched
}

// Imbalance reports max/mean busy nanoseconds across the workers that did
// any work — 1.0 is a perfectly balanced schedule, 2.0 means the slowest
// worker carried twice the average. Zero when nothing was recorded.
func (s *SchedCounters) Imbalance() float64 {
	if s == nil {
		return 0
	}
	lanes := s.BusyNS.Lanes()
	var sum, max int64
	active := 0
	for _, v := range lanes {
		if v == 0 {
			continue
		}
		active++
		sum += v
		if v > max {
			max = v
		}
	}
	if active == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(active) / float64(sum)
}
