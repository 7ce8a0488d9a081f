package ckpt

import (
	"math"
	"testing"
)

// TestDisabledStoreIsNil: the zero Config disables checkpointing, so the
// recovery driver holds no checkpoint (it never takes one); any positive
// Interval enables it.
func TestDisabledStoreIsNil(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports checkpointing enabled")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	for _, n := range []int{1, 3} {
		if !(Config{Interval: n}).Enabled() {
			t.Errorf("Interval %d reports checkpointing disabled", n)
		}
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
