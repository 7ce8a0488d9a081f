package obs

import "sync/atomic"

// Counter is a monotonic counter: one atomic word every writer adds into.
// The nil Counter is the disabled mode: Add costs one pointer check and
// Value reports zero.
type Counter struct {
	v atomic.Int64
}

// Add accumulates delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the sum of every Add so far.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
