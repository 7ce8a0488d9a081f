package cluster

import (
	"testing"
	"time"

	"graphmaze/internal/trace"
)

// TestRunPhaseEmitsSpans: every phase records one virtual span per node
// whose duration is the phase's wall clock, with compute/network/wait
// attribution summing to it — so the per-node span timeline covers
// SimulatedSeconds exactly.
func TestRunPhaseEmitsSpans(t *testing.T) {
	tr := trace.New()
	cfg := testConfig(3)
	cfg.Trace = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for phase := 0; phase < 2; phase++ {
		err := c.RunPhase(func(n int) error {
			// Skewed compute so wait attribution is nonzero on fast nodes.
			time.Sleep(time.Duration(n+1) * 2 * time.Millisecond)
			if n == 0 {
				c.Send(0, 1, make([]byte, 1<<20))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	evs := tr.Events()
	if len(evs) != 2*3 {
		t.Fatalf("recorded %d spans, want 6 (2 phases × 3 nodes)", len(evs))
	}
	rep := c.Report()
	// RecordVirtual truncates to whole nanoseconds, so allow 1µs slack.
	const tol = 1e-6
	perNode := make(map[int]float64)
	for _, ev := range evs {
		if ev.Cat != "cluster.phase" {
			t.Fatalf("span cat = %q", ev.Cat)
		}
		dur := float64(ev.DurNS) / 1e9
		perNode[ev.Pid] += dur
		attributed := ev.Args["compute_sec"] + ev.Args["network_sec"] + ev.Args["wait_sec"]
		if diff := attributed - dur; diff > tol || diff < -tol {
			t.Errorf("pid %d span %q: attribution %v != duration %v", ev.Pid, ev.Name, attributed, dur)
		}
		if ev.Args["wait_sec"] < 0 {
			t.Errorf("negative wait on pid %d: %v", ev.Pid, ev.Args)
		}
	}
	if len(perNode) != 3 {
		t.Fatalf("spans cover %d node tracks, want 3", len(perNode))
	}
	for pid, sum := range perNode {
		if pid < trace.PidNodeBase {
			t.Errorf("cluster span on non-node pid %d", pid)
		}
		if diff := sum - rep.SimulatedSeconds; diff > tol || diff < -tol {
			t.Errorf("pid %d spans cover %v, SimulatedSeconds %v", pid, sum, rep.SimulatedSeconds)
		}
	}
	if c.VirtualSeconds() != rep.SimulatedSeconds {
		t.Errorf("VirtualSeconds %v != SimulatedSeconds %v", c.VirtualSeconds(), rep.SimulatedSeconds)
	}

	// The trace digest agrees: full span coverage of the simulation.
	if cov := trace.Summarize(tr).VirtualSeconds / rep.SimulatedSeconds; cov < 0.95 {
		t.Errorf("span coverage = %v, want ≥ 0.95", cov)
	}
}

// TestRunPhaseFeedsAttributionHistograms: each traced phase records one
// observation per node into the compute/network/wait/wall histograms, and
// the observed totals agree with the span attribution.
func TestRunPhaseFeedsAttributionHistograms(t *testing.T) {
	tr := trace.New()
	cfg := testConfig(3)
	cfg.Trace = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const phases = 4
	for phase := 0; phase < phases; phase++ {
		err := c.RunPhase(func(n int) error {
			time.Sleep(time.Duration(n+1) * time.Millisecond)
			c.Account(n, 1<<20, 8)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hs := tr.Registry().HistSnapshots()
	for _, name := range []string{"cluster.compute_ns", "cluster.network_ns", "cluster.wait_ns", "cluster.phase.dur_ns"} {
		if got := hs[name]; got.Count != phases*3 {
			t.Errorf("%s count = %d, want %d", name, got.Count, phases*3)
		}
	}
	// Each cluster.phase span lasts the phase wall clock, identical across
	// the phase's nodes; the span histogram's sum must therefore be nodes ×
	// virtual seconds (up to ns truncation).
	wallSec := float64(hs["cluster.phase.dur_ns"].Sum) / 1e9
	if want := 3 * c.VirtualSeconds(); wallSec < want-1e-3 || wallSec > want+1e-3 {
		t.Errorf("cluster.phase.dur_ns sum %v, want %v", wallSec, want)
	}
	// The trace summary quotes the same histograms as quantiles.
	hists := trace.Summarize(tr).Metrics.Histograms
	if q, ok := hists["cluster.compute_ns"]; !ok || q.P50 <= 0 {
		t.Errorf("summary missing cluster.compute_ns quantiles: %+v", hists)
	}
}

// TestRunPhaseUntraced: a cluster without a tracer runs phases normally —
// the virtual clock advances, the report fills in, and no tracer is exposed.
func TestRunPhaseUntraced(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Tracer() != nil {
		t.Fatal("untraced cluster exposes a tracer")
	}
	for phase := 0; phase < 2; phase++ {
		if err := c.RunPhase(func(n int) error {
			c.Account(n, 1<<16, 4)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.Report()
	if rep.SimulatedSeconds <= 0 {
		t.Errorf("SimulatedSeconds = %v, want > 0", rep.SimulatedSeconds)
	}
	if c.VirtualSeconds() != rep.SimulatedSeconds {
		t.Errorf("VirtualSeconds %v != SimulatedSeconds %v", c.VirtualSeconds(), rep.SimulatedSeconds)
	}
}
