package obs

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkObsHistDisabled pins the cost of the disabled path: one nil
// check per call, 0 allocs/op (TestDisabledRecordAllocatesNothing is the
// gate).
func BenchmarkObsHistDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(i, int64(i))
	}
}

// BenchmarkObsRegistryDisabled pins the nil-registry lookup+record chain.
func BenchmarkObsRegistryDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Hist("x").Record(i, int64(i))
	}
}

// BenchmarkObsHistRecord measures the enabled single-threaded hot path.
// ResetTimer excludes histogram construction so allocs/op reads 0 even
// at -benchtime=1x.
func BenchmarkObsHistRecord(b *testing.B) {
	h := newHistogram("bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(0, int64(i&0xfffff))
	}
}

// BenchmarkObsHistRecordParallel measures contention behavior with one
// lane per worker (the intended usage under a pool dispatch). Persistent
// workers run a warmup round before the timer so the timed round does
// only Record calls plus warm channel handoffs: goroutine spawning and
// the runtime's park/wake structures never amortize at CI's
// -benchtime=1x, and -benchmem forces alloc reporting on every
// benchmark, so any of that inside the timer would read as a fake
// regression against the committed 0-alloc baseline.
func BenchmarkObsHistRecordParallel(b *testing.B) {
	h := newHistogram("bench", 64)
	workers := runtime.GOMAXPROCS(0)
	work := make(chan int)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for per := range work {
				for i := 0; i < per; i++ {
					h.Record(w, int64(i&0xfffff))
				}
				done <- struct{}{}
			}
		}(w)
	}
	round := func(per int) {
		for w := 0; w < workers; w++ {
			work <- per
		}
		for w := 0; w < workers; w++ {
			<-done
		}
	}
	round(64) // warmup: park/wake once off the clock
	b.ResetTimer()
	round(b.N/workers + 1)
	b.StopTimer()
	close(work)
	wg.Wait()
}

// BenchmarkObsGaugeSet measures the gauge store path.
func BenchmarkObsGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

// BenchmarkCounterAdd measures the counter increment every instrumented
// hot path pays: one atomic add on the caller's lane.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(0, 1)
		}
	})
}
