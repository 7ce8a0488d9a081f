package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"graphmaze/internal/obs"
)

func TestSpanRecordsEvent(t *testing.T) {
	tr := New()
	sp := tr.Begin("test.cat", "work").Arg("k", 3)
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Cat != "test.cat" || ev.Name != "work" || ev.Pid != PidHost {
		t.Errorf("event = %+v", ev)
	}
	if ev.Args["k"] != 3 {
		t.Errorf("args = %v", ev.Args)
	}
	if ev.DurNS < 0 {
		t.Errorf("negative duration %d", ev.DurNS)
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	tr := New()
	sp := tr.Begin("c", "n")
	sp.End()
	sp.End()
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("double End recorded %d events", n)
	}
}

func TestRecordVirtual(t *testing.T) {
	tr := New()
	tr.RecordVirtual(PidNode(2), "cluster.phase", "phase 1", 1.5, 0.25,
		map[string]float64{"compute_sec": 0.2})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events", len(evs))
	}
	ev := evs[0]
	if ev.Pid != PidNodeBase+2 || ev.StartNS != 1_500_000_000 || ev.DurNS != 250_000_000 {
		t.Errorf("event = %+v", ev)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Begin("c", "n").Arg("k", 1)
	sp.End()
	tr.RecordVirtual(PidEngine, "c", "n", 0, 1, nil)
	tr.SetProcessName(3, "x")
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
	c := tr.Counter("x")
	c.Add(0, 5)
	if c.Value() != 0 || c.Lanes() != nil {
		t.Error("nil counter not inert")
	}
	if Summarize(tr) != nil {
		t.Error("Summarize(nil) != nil")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("exporting a nil tracer should error")
	}
}

// TestDisabledTracerAllocatesNothing pins the disabled mode's zero-byte
// guarantee: a span begun, annotated, and ended against the nil tracer
// must not allocate.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	var c *obs.Counter
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("c", "n").Arg("k", 1).Arg("j", 2)
		sp.End()
		c.Add(0, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v bytes/op, want 0", allocs)
	}
}

// TestCounterLanesAndValue: a counter resolved through the tracer is the
// registry's (obs has the counter's own tests), the same one every time.
func TestCounterLanesAndValue(t *testing.T) {
	tr := New()
	c := tr.Counter("items")
	c.Add(0, 10)
	c.Add(1, 5)
	c.Add(0, 1)
	if c.Value() != 16 {
		t.Errorf("Value = %d, want 16", c.Value())
	}
	if again := tr.Counter("items"); again != c || tr.Registry().Counter("items") != c {
		t.Error("Counter did not return the registry's instance")
	}
	// Worker ids beyond the lane count wrap without panicking.
	c.Add(1<<20+3, 4)
	if c.Value() != 20 {
		t.Errorf("after wrapped add Value = %d, want 20", c.Value())
	}
}

// TestTracerConcurrentUse drives spans, counters, and exports from many
// goroutines; run under -race this is the concurrency-safety check.
func TestTracerConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tr.Counter("shared")
			for i := 0; i < 200; i++ {
				sp := tr.Begin("race.cat", "op").Arg("i", float64(i))
				c.Add(w, 1)
				tr.RecordVirtual(PidNode(w), "race.virtual", "v", float64(i), 1, nil)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Counter("shared").Value(); got != 8*200 {
		t.Errorf("counter = %d, want %d", got, 8*200)
	}
	if got := len(tr.Events()); got != 2*8*200 {
		t.Errorf("events = %d, want %d", got, 2*8*200)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestChromeTraceSchema validates the exported JSON against what Perfetto
// requires: every event has ph/ts/pid/tid, "X" events have durations, and
// timestamps are monotonically non-decreasing in file order.
func TestChromeTraceSchema(t *testing.T) {
	tr := New()
	tr.SetProcessName(PidNode(0), "node 0")
	sp := tr.Begin("k.cat", "kernel").Arg("n", 1)
	tr.RecordVirtual(PidNode(0), "cluster.phase", "phase 1", 0, 0.5,
		map[string]float64{"compute_sec": 0.4, "wait_sec": 0.1})
	tr.RecordVirtual(PidNode(0), "cluster.phase", "phase 2", 0.5, 0.25, nil)
	sp.End()
	tr.Counter("msgs").Add(0, 7)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	sawPhase := map[string]int{}
	lastTS := -1.0
	for i, ev := range doc.TraceEvents {
		for _, req := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[req]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, req, ev)
			}
		}
		ph := ev["ph"].(string)
		sawPhase[ph]++
		ts := ev["ts"].(float64)
		if ph != "M" {
			if ts < lastTS {
				t.Fatalf("event %d ts %v < previous %v (non-monotonic)", i, ts, lastTS)
			}
			lastTS = ts
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		}
	}
	if sawPhase["M"] == 0 || sawPhase["X"] != 3 || sawPhase["C"] != 1 {
		t.Errorf("phase counts = %v, want M>0, X=3, C=1", sawPhase)
	}
}

// TestChromeTraceGolden pins the byte-exact export of a purely virtual
// trace (virtual clocks are deterministic; real-time spans are not).
// Regenerate with -update-golden after intentional format changes.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestChromeTraceGolden(t *testing.T) {
	tr := New()
	tr.SetProcessName(PidNode(0), "node 0 (test, virtual time)")
	tr.SetProcessName(PidNode(1), "node 1 (test, virtual time)")
	tr.RecordVirtual(PidNode(0), "cluster.phase", "phase 1", 0, 0.5,
		map[string]float64{"compute_sec": 0.375, "network_sec": 0.125})
	tr.RecordVirtual(PidNode(1), "cluster.phase", "phase 1", 0, 0.5,
		map[string]float64{"compute_sec": 0.25, "wait_sec": 0.25})
	tr.RecordVirtual(PidEngine, "giraph.superstep", "superstep 0", 0, 0.5, nil)
	tr.Counter("giraph.messages").Add(0, 1234)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "virtual_trace.golden.json")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestSummarize(t *testing.T) {
	tr := New()
	tr.RecordVirtual(PidNode(0), "cluster.phase", "p1", 0, 1,
		map[string]float64{"compute_sec": 0.6, "network_sec": 0.3, "wait_sec": 0.1})
	tr.RecordVirtual(PidNode(0), "cluster.phase", "p2", 1, 2, nil)
	tr.RecordVirtual(PidNode(1), "cluster.phase", "p1", 0, 1, nil)
	tr.RecordVirtual(PidEngine, "native.pr.iter", "it", 0, 3, nil)
	tr.Counter("msgs").Add(0, 5)

	s := Summarize(tr)
	if s.Spans != 4 {
		t.Errorf("Spans = %d", s.Spans)
	}
	// Node 0 covers 3s of virtual time, node 1 covers 1s; engine pid is
	// excluded from coverage.
	if s.VirtualSeconds != 3 {
		t.Errorf("VirtualSeconds = %v, want 3", s.VirtualSeconds)
	}
	var phase *PhaseStat
	for i := range s.Timeline {
		if s.Timeline[i].Cat == "cluster.phase" {
			phase = &s.Timeline[i]
		}
	}
	if phase == nil || phase.Count != 3 || phase.TotalSec != 4 {
		t.Fatalf("cluster.phase stat = %+v", phase)
	}
	if phase.ComputeSec != 0.6 || phase.NetworkSec != 0.3 || phase.WaitSec != 0.1 {
		t.Errorf("attribution = %+v", phase)
	}
	if len(s.Counters) != 1 || s.Counters[0].Total != 5 {
		t.Errorf("counters = %+v", s.Counters)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("bench.cat", "op").Arg("i", float64(i))
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("bench.cat", "op").Arg("i", float64(i))
		sp.End()
	}
}
