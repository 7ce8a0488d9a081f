package obs

import (
	"math"
	"sync/atomic"
)

// Gauge is a float64 value that can move both ways (heap bytes, busy
// fraction, goroutine count). Set and Value are single atomic operations.
// A nil *Gauge is a valid disabled gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
