package obs

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

// Counter is a monotonic counter with per-worker padded lanes. Hot
// loops Add into their own lane (indexed by worker id); readers sum the
// lanes. The nil Counter is the disabled mode: Add costs one pointer
// check and Value reports zero.
type Counter struct {
	mask  uint32
	lanes []paddedInt64
}

// newCounter rounds the host's parallelism up to a power of two so the
// worker→lane map is a mask, not a modulo.
func newCounter() *Counter {
	k := 1
	for k < runtime.GOMAXPROCS(0) {
		k <<= 1
	}
	return &Counter{mask: uint32(k - 1), lanes: make([]paddedInt64, k)}
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
