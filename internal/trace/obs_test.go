package trace

import (
	"sync"
	"testing"
	"time"
)

// TestCounterAliasedWorkersExact pins the Counter mask-wrap contract:
// worker indices at or beyond the lane count alias onto existing lanes,
// and Value() still equals the exact sum of every Add because aliased
// workers land on the same atomic word. Run with -race this also proves
// the aliased path is data-race free.
func TestCounterAliasedWorkersExact(t *testing.T) {
	tr := New()
	c := tr.Counter("alias")
	lanes := len(c.Lanes())
	workers := 3*lanes + 1 // strictly more workers than lanes, not a multiple
	per := 10000
	if testing.Short() {
		per = 1000
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(w, 2)
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers) * int64(per) * 2
	if got := c.Value(); got != want {
		t.Fatalf("aliased Value() = %d, want %d (workers=%d lanes=%d)", got, want, workers, lanes)
	}
	// The lane array must not have grown: aliasing wraps, it never resizes.
	if got := len(c.Lanes()); got != lanes {
		t.Fatalf("lane count changed under aliasing: %d -> %d", lanes, got)
	}
}

// TestTracerRegistryAndSpanHistograms checks the tracer's registry: a
// counter obtained through the tracer is the registry's, and every ended
// span feeds the per-category duration histogram.
func TestTracerRegistryAndSpanHistograms(t *testing.T) {
	tr := New()
	if tr.Registry() == nil {
		t.Fatal("enabled tracer has no registry")
	}
	tr.Counter("x.count").Add(0, 5)
	for i := 0; i < 4; i++ {
		sp := tr.Begin("unit.test.iter", "iter")
		time.Sleep(100 * time.Microsecond)
		sp.End()
	}
	tr.RecordVirtual(PidNode(1), "unit.virtual", "phase", 0, 1.5, nil)

	hs := tr.Registry().HistSnapshots()
	if got := hs["unit.test.iter.dur_ns"]; got.Count != 4 {
		t.Fatalf("span hist count = %d, want 4 (%+v)", got.Count, hs)
	}
	if got := hs["unit.virtual.dur_ns"]; got.Count != 1 || got.Sum != 1_500_000_000 {
		t.Fatalf("virtual hist = %+v", got)
	}
	snap := tr.Registry().Snapshot()
	foundCounter := false
	for _, c := range snap.Counters {
		if c.Name == "x.count" && c.Value == 5 {
			foundCounter = true
		}
	}
	if !foundCounter {
		t.Fatalf("counter missing from the registry snapshot: %+v", snap.Counters)
	}

	s := Summarize(tr)
	if len(s.Histograms) == 0 {
		t.Fatal("summary has no histogram quantiles")
	}
	var sawIter bool
	for _, h := range s.Histograms {
		if h.Name == "unit.test.iter.dur_ns" {
			sawIter = true
			if h.Count != 4 || h.P50 <= 0 || h.P99 < h.P50 {
				t.Fatalf("iter quantiles implausible: %+v", h)
			}
		}
	}
	if !sawIter {
		t.Fatalf("summary missing iter histogram: %+v", s.Histograms)
	}
}

// TestNilTracerObsAccessors pins the disabled chain: nil tracer ->
// nil registry -> nil histogram, all inert and alloc-free.
func TestNilTracerObsAccessors(t *testing.T) {
	var tr *Tracer
	if tr.Registry() != nil || tr.Hist("x") != nil {
		t.Fatal("nil tracer leaked live obs handles")
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.Hist("x").Record(1, 2)
		tr.Registry().Hist("y").Record(0, 1)
	}); n != 0 {
		t.Fatalf("disabled obs chain allocates %v per op", n)
	}
}
