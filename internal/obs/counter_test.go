package obs

import (
	"sync"
	"testing"
)

func TestCounterLanesAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("items")
	c.Add(0, 10)
	c.Add(1, 5)
	c.Add(0, 1)
	if c.Value() != 16 {
		t.Errorf("Value = %d, want 16", c.Value())
	}
	if again := r.Counter("items"); again != c {
		t.Error("Counter did not return the registered instance")
	}
	// Worker ids beyond the lane count wrap without panicking.
	c.Add(1<<20+3, 4)
	if c.Value() != 20 {
		t.Errorf("after wrapped add Value = %d, want 20", c.Value())
	}
	// The snapshot carries the same lanes, and their sum as the value.
	p := r.Snapshot().Counters[0]
	var sum int64
	for _, v := range p.Lanes {
		sum += v
	}
	if p.Name != "items" || p.Value != 20 || sum != 20 || len(p.Lanes) != len(c.Lanes()) {
		t.Errorf("snapshot point = %+v", p)
	}
}

// TestCounterAliasedWorkersExact pins the Counter mask-wrap contract:
// worker indices at or beyond the lane count alias onto existing lanes,
// and Value() still equals the exact sum of every Add because aliased
// workers land on the same atomic word. Run with -race this also proves
// the aliased path is data-race free.
func TestCounterAliasedWorkersExact(t *testing.T) {
	c := NewRegistry().Counter("alias")
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

// TestNilCounterIsInertAndAllocatesNothing pins the disabled mode: the nil
// registry hands out the nil counter, whose Add is one pointer check.
func TestNilCounterIsInertAndAllocatesNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil || c.Value() != 0 || c.Lanes() != nil {
		t.Fatal("nil counter not inert")
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(0, 1) }); n != 0 {
		t.Fatalf("nil counter Add allocates %v per op, want 0", n)
	}
	live := NewRegistry().Counter("y")
	if n := testing.AllocsPerRun(1000, func() { live.Add(3, 1) }); n != 0 {
		t.Fatalf("counter Add allocates %v per op, want 0", n)
	}
}
