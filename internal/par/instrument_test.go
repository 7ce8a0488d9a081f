package par

import (
	"runtime"
	"sync/atomic"
	"testing"

	"graphmaze/internal/trace"
)

// TestSchedCountersObserveLoops checks the scheduling counters see every
// chunk and item a loop processes, across all three loop families.
func TestSchedCountersObserveLoops(t *testing.T) {
	tr := trace.New()
	SetSchedCounters(tr.Sched())
	defer SetSchedCounters(nil)

	const n = 1000
	var touched atomic.Int64

	before := tr.Sched().Items.Value()
	ForWorkersIndexed(4, n, func(w, lo, hi int) {
		touched.Add(int64(hi - lo))
	})
	if got := tr.Sched().Items.Value() - before; got != n {
		t.Errorf("ForWorkersIndexed counted %d items, want %d", got, n)
	}

	before = tr.Sched().Items.Value()
	ForDynamicIndexed(n, 64, func(w, lo, hi int) {
		touched.Add(int64(hi - lo))
	})
	if got := tr.Sched().Items.Value() - before; got != n {
		t.Errorf("ForDynamicIndexed counted %d items, want %d", got, n)
	}

	offsets := make([]int64, n+1)
	for i := range offsets {
		offsets[i] = int64(i) * 3
	}
	before = tr.Sched().Items.Value()
	ForOffsets(offsets, func(lo, hi int) {
		touched.Add(int64(hi - lo))
	})
	if got := tr.Sched().Items.Value() - before; got != n {
		t.Errorf("ForOffsets counted %d items, want %d", got, n)
	}

	if touched.Load() != 3*n {
		t.Errorf("loops touched %d items, want %d", touched.Load(), 3*n)
	}
	if tr.Sched().Chunks.Value() == 0 {
		t.Error("no chunks recorded")
	}
	if tr.Sched().BusyNS.Value() < 0 {
		t.Error("negative busy time")
	}
}

// TestDynamicClaimLatencyHistogram checks the dynamic loops feed the
// chunk-claim latency histogram: one observation per claimed chunk when
// the parallel path runs.
func TestDynamicClaimLatencyHistogram(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("claim latency only recorded on the parallel path")
	}
	tr := trace.New()
	SetSchedCounters(tr.Sched())
	defer SetSchedCounters(nil)

	before := tr.Sched().Chunks.Value()
	var touched atomic.Int64
	ForDynamicIndexed(1<<14, 256, func(w, lo, hi int) {
		touched.Add(int64(hi - lo))
	})
	chunks := tr.Sched().Chunks.Value() - before
	hs := tr.Registry().HistSnapshots()["par.claim_ns"]
	if hs.Count != chunks {
		t.Fatalf("claim hist has %d observations, want %d (one per chunk)", hs.Count, chunks)
	}
	if touched.Load() != 1<<14 {
		t.Fatalf("loop touched %d items", touched.Load())
	}
}

// TestSchedCountersDetached: with no counters attached the loops run
// uninstrumented and nothing accumulates.
func TestSchedCountersDetached(t *testing.T) {
	tr := trace.New()
	SetSchedCounters(nil)
	ForDynamicIndexed(100, 10, func(w, lo, hi int) {})
	if got := tr.Sched().Items.Value(); got != 0 {
		t.Errorf("detached counters saw %d items", got)
	}
}
