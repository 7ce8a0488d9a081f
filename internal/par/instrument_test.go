package par

import (
	"sync/atomic"
	"testing"

	"graphmaze/internal/trace"
)

// TestSchedCountersObserveLoops checks the scheduling counters see every
// chunk and item a loop processes, across both loop families.
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

	if touched.Load() != 2*n {
		t.Errorf("loops touched %d items, want %d", touched.Load(), 2*n)
	}
	if tr.Sched().Chunks.Value() == 0 {
		t.Error("no chunks recorded")
	}
	if tr.Sched().BusyNS.Value() < 0 {
		t.Error("negative busy time")
	}
}

// TestSchedCountersDetached: with no counters attached the loops run
// uninstrumented and nothing accumulates.
func TestSchedCountersDetached(t *testing.T) {
	tr := trace.New()
	SetSchedCounters(nil)
	ForWorkersIndexed(4, 100, func(w, lo, hi int) {})
	if got := tr.Sched().Items.Value(); got != 0 {
		t.Errorf("detached counters saw %d items", got)
	}
}
