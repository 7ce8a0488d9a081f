package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"graphmaze/internal/obs"
)

// TestTracerRegistryAndSpanHistograms checks the tracer's registry: a
// counter obtained through it lands in the snapshot, and every ended span
// feeds the per-category duration histogram.
func TestTracerRegistryAndSpanHistograms(t *testing.T) {
	tr := New()
	if tr.Registry() == nil {
		t.Fatal("enabled tracer has no registry")
	}
	tr.Registry().Counter("x.count").Add(5)
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

	m := Summarize(tr).Metrics
	if m.Counters["x.count"] != 5 {
		t.Fatalf("summary counters = %+v", m.Counters)
	}
	h, ok := m.Histograms["unit.test.iter.dur_ns"]
	if !ok {
		t.Fatalf("summary missing iter histogram: %+v", m.Histograms)
	}
	if h.Count != 4 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Fatalf("iter quantiles implausible: %+v", h)
	}
}

// TestSummaryMetricsIsTheMetricsJSONShape: the trace report's metrics are
// the registry's one JSON encoding, byte for byte what /metrics.json
// serves for the same snapshot — counters, gauges and histograms alike.
func TestSummaryMetricsIsTheMetricsJSONShape(t *testing.T) {
	tr := New()
	reg := tr.Registry()
	reg.Counter("giraph.messages").Add(1234)
	reg.Counter("backend.pool.inline").Add(3)
	reg.Gauge("backend.pool.workers").Set(4)
	reg.Gauge("backend.pool.busy_frac").Set(0.25)
	h := reg.Hist("cluster.compute_ns")
	for _, v := range []int64{1, 10, 100, 1000} {
		h.Record(0, v)
	}

	got, err := json.Marshal(Summarize(tr).Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := obs.WriteJSON(&served, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, served.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("summary metrics differ from /metrics.json\ngot:  %s\nwant: %s", got, want.Bytes())
	}
	if !bytes.Contains(got, []byte(`"backend.pool.workers":4`)) {
		t.Fatalf("summary metrics carry no gauges: %s", got)
	}
}

// TestNilTracerObsAccessors pins the disabled chain: nil tracer ->
// nil registry -> nil histogram, all inert and alloc-free.
func TestNilTracerObsAccessors(t *testing.T) {
	var tr *Tracer
	if tr.Registry() != nil || tr.Registry().Hist("x") != nil {
		t.Fatal("nil tracer leaked live obs handles")
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.Registry().Hist("y").Record(0, 1)
		tr.Registry().Counter("z").Add(1)
	}); n != 0 {
		t.Fatalf("disabled obs chain allocates %v per op", n)
	}
}
