package ckpt

import (
	"math"
	"testing"
)

func TestDisabledStoreIsNil(t *testing.T) {
	s := NewStore(Config{})
	if s != nil {
		t.Fatal("disabled config produced a store")
	}
	// Nil-safe accessors gate the recovery loop.
	if s.Due(0) {
		t.Error("nil store reported a checkpoint due")
	}
	if _, ok := s.Latest(); ok {
		t.Error("nil store produced a checkpoint")
	}
	if b, w := s.Stats(); b != 0 || w != 0 {
		t.Errorf("nil store stats = %d/%d", b, w)
	}
}

func TestDue(t *testing.T) {
	s := NewStore(Config{Interval: 3})
	for step, want := range map[int]bool{0: true, 1: false, 2: false, 3: true, 6: true, 7: false} {
		if got := s.Due(step); got != want {
			t.Errorf("Due(%d) = %v, want %v", step, got, want)
		}
	}
}

func TestSaveLatestStats(t *testing.T) {
	s := NewStore(Config{Interval: 2})
	if _, ok := s.Latest(); ok {
		t.Error("empty store produced a checkpoint")
	}
	s.Save(0, 0, []byte("aaaa"), 2)
	s.Save(2, 5, []byte("bbbbbbbb"), 2)
	ck, ok := s.Latest()
	if !ok || ck.Step != 2 || ck.Phases != 5 || string(ck.Data) != "bbbbbbbb" {
		t.Errorf("Latest = %+v, %v", ck, ok)
	}
	bytes, writes := s.Stats()
	if bytes != 12 || writes != 2 {
		t.Errorf("Stats = %d bytes / %d writes, want 12/2", bytes, writes)
	}
}

func TestWriteSecondsModel(t *testing.T) {
	// 2 GB over 2 nodes at 1 GB/s/node: 1 s transfer + the 50 ms latency.
	got := WriteSeconds(2*Bandwidth, 2)
	if want := 1 + Latency; math.Abs(got-want) > 1e-9 {
		t.Errorf("WriteSeconds = %v, want %v", got, want)
	}
	if r := ReadSeconds(2*Bandwidth, 2); r != got {
		t.Errorf("ReadSeconds %v != WriteSeconds %v", r, got)
	}
	// Zero nodes must not divide by zero.
	if v := WriteSeconds(1e6, 0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("WriteSeconds with 0 nodes = %v", v)
	}
}

// TestDefaults pins the cost model to its documented figures: 1 GB/s per
// node and 50 ms per write, so an empty blob costs the latency alone.
func TestDefaults(t *testing.T) {
	if Bandwidth != 1e9 || Latency != 0.05 {
		t.Errorf("cost model = %v B/s, %v s", float64(Bandwidth), float64(Latency))
	}
	if v := WriteSeconds(0, 1); v != Latency {
		t.Errorf("empty write costs %v, want the latency %v", v, float64(Latency))
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Interval: -1}).Validate(); err == nil {
		t.Error("accepted negative interval")
	}
	if err := (Config{Interval: 2}).Validate(); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestSaveReturnsWriteCost(t *testing.T) {
	// One 1 MB write on one node: 1 ms of transfer plus the latency.
	s := NewStore(Config{Interval: 1})
	cost := s.Save(0, 0, make([]byte, 1e6), 1)
	want := 1e6/Bandwidth + Latency
	if math.Abs(cost-want) > 1e-9 {
		t.Errorf("Save cost = %v, want %v", cost, want)
	}
}
