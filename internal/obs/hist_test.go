package obs

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	// Every bucket's low value must map back to that bucket, the value one
	// below must map to the previous bucket, and widths must tile the
	// int64 range with no gaps or overlaps.
	for i := 0; i < histBuckets; i++ {
		low := bucketLow(i)
		if got := bucketIndex(low); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, low, got)
		}
		hi := low + bucketWidth(i) - 1
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(high %d) = %d, want %d", hi, got, i)
		}
		if i > 0 {
			prevHi := bucketLow(i-1) + bucketWidth(i-1) - 1
			if prevHi+1 != low {
				t.Fatalf("gap between bucket %d (ends %d) and %d (starts %d)", i-1, prevHi, i, low)
			}
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d", got)
	}
	if got := bucketIndex(int64(1)<<62 + 12345); got != histBuckets-4 {
		t.Fatalf("top octave index = %d, want %d", got, histBuckets-4)
	}
}

func TestHistogramQuantilePropertyVsExact(t *testing.T) {
	// Property test: for random value sets spanning several orders of
	// magnitude, every estimated quantile must be within the documented
	// bucket error bound of the exact order statistic: the estimate lands
	// in the same bucket as the exact value, so |est-exact| <= width-1 <=
	// exact/4.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.Intn(5000)
		h := newHistogram("t", 4)
		vals := make([]int64, n)
		for i := range vals {
			// Mix scales: exact small values, mid-range, and heavy tail.
			switch rng.Intn(3) {
			case 0:
				vals[i] = int64(rng.Intn(16))
			case 1:
				vals[i] = int64(rng.Intn(1 << 20))
			default:
				vals[i] = int64(rng.Int63n(1 << 40))
			}
			h.Record(i, vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		if s.Count != int64(n) {
			t.Fatalf("count = %d, want %d", s.Count, n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
			rank := int((q * float64(n)) + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			exact := vals[rank-1]
			est := s.Quantile(q)
			tol := exact/4 + 1
			if est < exact-tol || est > exact+tol {
				t.Fatalf("trial %d q=%g: est %d outside [%d±%d] (exact %d)",
					trial, q, est, exact, tol, exact)
			}
		}
		if s.Max != vals[n-1] {
			t.Fatalf("max = %d, want %d", s.Max, vals[n-1])
		}
	}
}

func TestHistogramSubDelta(t *testing.T) {
	h := newHistogram("d", 2)
	for i := 0; i < 100; i++ {
		h.Record(0, int64(i))
	}
	before := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Record(1, 1000)
	}
	d := h.Snapshot().Sub(before)
	if d.Count != 50 || d.Sum != 50*1000 {
		t.Fatalf("delta count=%d sum=%d", d.Count, d.Sum)
	}
	if q := d.Quantile(0.5); q < 750 || q > 1250 {
		t.Fatalf("delta p50 = %d, want ~1000", q)
	}
}

func TestHistogramRaceStress(t *testing.T) {
	// Recording from GOMAXPROCS goroutines, including worker indices past
	// the lane count (they wrap by mask): totals must still be exact.
	workers := runtime.GOMAXPROCS(0)
	h := newHistogram("race", workers)
	per := 20000
	if testing.Short() {
		per = 2000
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(w, int64(i%1024))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	want := int64(2*workers) * int64(per)
	if s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var wantSum int64
	for i := 0; i < per; i++ {
		wantSum += int64(i % 1024)
	}
	wantSum *= int64(2 * workers)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestNilHistogramAndNegativeClamp(t *testing.T) {
	var h *Histogram
	h.Record(0, 5) // must not panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
	real := newHistogram("n", 1)
	real.Record(0, -50)
	if s := real.Snapshot(); s.Count != 1 || s.Sum != 0 {
		t.Fatalf("negative clamp: %+v", s)
	}
}

func TestDisabledRecordAllocatesNothing(t *testing.T) {
	var h *Histogram
	var g *Gauge
	var r *Registry
	if n := testing.AllocsPerRun(100, func() {
		h.Record(3, 12345)
		g.Set(1)
		r.Hist("x").Record(0, 1)
	}); n != 0 {
		t.Fatalf("disabled obs path allocates %v per op, want 0", n)
	}
}

func TestEnabledRecordAllocatesNothing(t *testing.T) {
	h := newHistogram("steady", 4)
	if n := testing.AllocsPerRun(100, func() {
		h.Record(2, 98765)
	}); n != 0 {
		t.Fatalf("enabled Record allocates %v per op, want 0", n)
	}
}

func TestDeltaQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Hist("a").Record(0, 10)
	prev := r.HistSnapshots()
	r.Hist("a").Record(0, 100)
	r.Hist("b").Record(0, 7)
	got := DeltaQuantiles(prev, r.HistSnapshots())
	if len(got) != 2 {
		t.Fatalf("delta hists = %v", got)
	}
	if got["a"].Count != 1 || got["b"].Count != 1 {
		t.Fatalf("delta counts: %+v", got)
	}
	// A histogram with no activity in the window must not appear.
	prev2 := r.HistSnapshots()
	r.Hist("b").Record(0, 8)
	got2 := DeltaQuantiles(prev2, r.HistSnapshots())
	if _, ok := got2["a"]; ok || got2["b"].Count != 1 {
		t.Fatalf("idle hist leaked into delta: %+v", got2)
	}
}
