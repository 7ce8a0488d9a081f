// Package obs owns every named instrument in graphmaze — counters, gauges
// and histograms, all resolved from a Registry — and serves them:
// Prometheus/JSON exposition with pprof endpoints, plus a Go-runtime
// sampler (DESIGN.md §9). Every method is nil-safe, the disabled path (nil
// receiver) is a single pointer check with zero allocations, and the
// enabled hot path (Counter.Add, Histogram.Record, Gauge.Set) never
// allocates or takes a lock.
//
// Each instrument has the shape its writers use. A counter or a gauge is
// one atomic word. A histogram keeps one padded lane per GOMAXPROCS worker,
// because its writers record at once from many goroutines (a pool's
// workers by index, a server's requests on rotating lanes). A registry has
// one JSON shape, JSONSnapshot, and one Prometheus text rendering.
//
// The package depends only on the standard library and sits below
// internal/trace in the import graph: a tracer has a Registry and resolves
// its counters and span-duration histograms from it, never the other way
// around.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// Bucket scheme: log-linear, base-2 with histSub linear sub-buckets per
// octave (HdrHistogram-style, collapsed to a fixed array).
//
//   - Values 0..histSub-1 land in exact unit buckets 0..histSub-1.
//   - A value v >= histSub with highest set bit e (v in [2^e, 2^(e+1)))
//     falls in sub-bucket (v >> (e-histSubBits)) & (histSub-1), giving
//     bucket index (e-histSubBits)*histSub + histSub + sub.
//
// With histSubBits = 2 that is 4 sub-buckets per power of two and 248
// buckets total covering all of int64, ~2KB of counters per lane. Each
// bucket spans [low, low + width) with width = 2^(e-histSubBits), so the
// midpoint estimate returned by quantiles is off by at most width/2 <=
// v/8: a relative quantile error bound of 12.5% on top of ordinary rank
// granularity. That is plenty for latency work where the interesting
// signal is order-of-magnitude tail movement.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	// histBuckets = exact unit buckets + histSub per octave for exponents
	// histSubBits..62 (63-histSubBits octaves): 4 + 61*4 = 248.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> uint(e-histSubBits)) & (histSub - 1))
	return (e-histSubBits)*histSub + histSub + sub
}

// bucketLow returns the smallest value mapped to bucket i.
func bucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := (i-histSub)/histSub + histSubBits
	sub := (i - histSub) % histSub
	return int64(1)<<uint(e) | int64(sub)<<uint(e-histSubBits)
}

// bucketWidth returns the number of distinct values mapped to bucket i.
func bucketWidth(i int) int64 {
	if i < histSub {
		return 1
	}
	e := (i-histSub)/histSub + histSubBits
	return int64(1) << uint(e-histSubBits)
}

// bucketMid returns the midpoint estimate reported for bucket i.
func bucketMid(i int) int64 {
	return bucketLow(i) + (bucketWidth(i)-1)/2
}

// histLane is one worker's private shard of a histogram. The struct is
// padded to a multiple of 64 bytes so adjacent lanes never share a cache
// line; counts dominate (~2KB) so the pad is noise.
type histLane struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	_      [48]byte
}

// Histogram is a lock-free latency/size histogram sharded across
// per-worker lanes. Record is wait-free apart from the max
// high-water CAS, never allocates, and scales linearly with workers as
// long as callers pass their own worker index. A nil *Histogram is a
// valid disabled histogram: every method is a no-op costing one branch.
type Histogram struct {
	name  string
	mask  uint32
	lanes []histLane
}

// newHistogram builds a histogram with lanes rounded up to a power of two
// covering n workers, so the worker→lane map is a mask, not a modulo.
func newHistogram(name string, workers int) *Histogram {
	n := 1
	for n < workers {
		n <<= 1
	}
	return &Histogram{name: name, mask: uint32(n - 1), lanes: make([]histLane, n)}
}

// Record adds one observation of v (clamped at 0) attributed to worker.
// Worker indices beyond the lane count wrap by mask: totals stay exact,
// only the scaling benefit of private lanes degrades.
func (h *Histogram) Record(worker int, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	ln := &h.lanes[uint32(worker)&h.mask]
	ln.counts[bucketIndex(v)].Add(1)
	ln.sum.Add(v)
	for {
		cur := ln.max.Load()
		if v <= cur || ln.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot folds every lane into one immutable HistSnapshot. Concurrent
// Records may land in either side of the fold; each observation is counted
// exactly once overall because lane counters are only ever added to.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Name: h.name, Buckets: make([]int64, histBuckets)}
	for li := range h.lanes {
		ln := &h.lanes[li]
		for i := range ln.counts {
			if c := ln.counts[i].Load(); c != 0 {
				s.Buckets[i] += c
				s.Count += c
			}
		}
		s.Sum += ln.sum.Load()
		if m := ln.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: plain integers,
// safe to marshal and subtract. The zero value is an empty
// snapshot.
type HistSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Sub returns the observations recorded after prev was taken, assuming
// prev is an earlier snapshot of the same histogram (bucket counters are
// monotone, so the bucket-wise difference is exact). Max cannot be
// differenced and is carried over from the later snapshot as an upper
// bound on the interval's maximum.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Name: s.Name, Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum, Max: s.Max}
	if s.Buckets == nil {
		return out
	}
	out.Buckets = make([]int64, histBuckets)
	copy(out.Buckets, s.Buckets)
	for i := range prev.Buckets {
		out.Buckets[i] -= prev.Buckets[i]
	}
	return out
}

// Quantile returns the midpoint estimate of the q-th quantile (q in
// [0,1]); 0 on an empty snapshot. The estimate is within the bucket error
// bound (<= 12.5% relative) of the exact rank statistic.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			mid := bucketMid(i)
			if mid > s.Max && s.Max > 0 {
				return s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean of the recorded values.
func (s HistSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantiles is the fixed summary exported into run records and trace
// reports. Values carry the unit of whatever was recorded (nanoseconds for
// every latency histogram in this repo).
type Quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	P999  int64   `json:"p999_ns"`
	Max   int64   `json:"max_ns"`
}

// Summary computes the standard quantile set from a snapshot.
func (s HistSnapshot) Summary() Quantiles {
	return Quantiles{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}

// DeltaQuantiles subtracts prev from cur histogram-wise and returns the
// quantile summaries of every histogram that recorded at least one
// observation in between. The harness uses it to attribute registry
// activity to a single run.
func DeltaQuantiles(prev, cur map[string]HistSnapshot) map[string]Quantiles {
	var out map[string]Quantiles
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := cur[name].Sub(prev[name])
		if d.Count <= 0 {
			continue
		}
		if out == nil {
			out = make(map[string]Quantiles)
		}
		out[name] = d.Summary()
	}
	return out
}
