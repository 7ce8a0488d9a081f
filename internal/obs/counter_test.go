package obs

import "testing"

func TestCounterLanesAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("items")
	c.Add(10)
	c.Add(5)
	c.Add(1)
	if c.Value() != 16 {
		t.Errorf("Value = %d, want 16", c.Value())
	}
	if again := r.Counter("items"); again != c {
		t.Error("Counter did not return the registered instance")
	}
	// The snapshot carries the same value.
	if p := r.Snapshot().Counters[0]; p.Name != "items" || p.Value != 16 {
		t.Errorf("snapshot point = %+v", p)
	}
}

// TestNilCounterIsInertAndAllocatesNothing pins the disabled mode: the nil
// registry hands out the nil counter, whose Add is one pointer check.
func TestNilCounterIsInertAndAllocatesNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil || c.Value() != 0 {
		t.Fatal("nil counter not inert")
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("nil counter Add allocates %v per op, want 0", n)
	}
	live := NewRegistry().Counter("y")
	if n := testing.AllocsPerRun(1000, func() { live.Add(1) }); n != 0 {
		t.Fatalf("counter Add allocates %v per op, want 0", n)
	}
}
