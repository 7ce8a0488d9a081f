package cluster

import (
	"math"
	"strings"
	"sync"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/fault"
	"graphmaze/internal/trace"
)

// TestReportTallies drives a cluster through accounted traffic and
// recorded memory and checks each Report field against the model: the
// counters sum, the bandwidth peak is the best per-node achieved rate, a
// lower memory mark never lowers the high-water mark, and utilization is
// busy thread-seconds over provisioned thread-seconds.
func TestReportTallies(t *testing.T) {
	cfg := Config{Nodes: 1, WorkersPerNode: 16, Comm: MPI(), MemoryPerNode: 1 << 30}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBaselineMemory(0, 100)
	c.RecordMemory(0, 500)
	c.RecordMemory(0, 300) // lower: ignored
	charges := []struct{ bytes, msgs int64 }{{1000, 2}, {3000, 1}}
	var wantPeak float64
	for _, ch := range charges {
		if err := c.RunPhase(func(n int) error { c.Account(n, ch.bytes, ch.msgs); return nil }); err != nil {
			t.Fatal(err)
		}
		net := cfg.Comm.Latency*float64(ch.msgs) + float64(ch.bytes)/cfg.Comm.Bandwidth
		wantPeak = max(wantPeak, float64(ch.bytes)/net)
	}

	r := c.Report()
	if r.Nodes != 1 || r.MemoryPerNode != 1<<30 {
		t.Errorf("Nodes/MemoryPerNode = %d/%d", r.Nodes, r.MemoryPerNode)
	}
	if r.BytesSent != 4000 || r.MessagesSent != 3 {
		t.Errorf("traffic = %d/%d, want 4000/3", r.BytesSent, r.MessagesSent)
	}
	if r.PeakNetworkBandwidth != wantPeak {
		t.Errorf("PeakNetworkBandwidth = %v, want %v", r.PeakNetworkBandwidth, wantPeak)
	}
	if r.MemoryFootprintBytes != 500 {
		t.Errorf("MemoryFootprintBytes = %d, want 500", r.MemoryFootprintBytes)
	}
	if sum := r.ComputeSeconds + r.NetworkSeconds; r.NetworkSeconds <= 0 || math.Abs(sum-r.SimulatedSeconds) > 1e-12*sum {
		t.Errorf("SimulatedSeconds = %v, want compute %v + network %v",
			r.SimulatedSeconds, r.ComputeSeconds, r.NetworkSeconds)
	}
	// One node with 16 threads busy: busy thread-seconds are 16 ×
	// ComputeSeconds, an exact power-of-two scaling of every phase's
	// compute, over ThreadsPerNode × SimulatedSeconds provisioned.
	if want := 16 * r.ComputeSeconds / (r.SimulatedSeconds * ThreadsPerNode); r.CPUUtilization != want {
		t.Errorf("CPUUtilization = %v, want %v", r.CPUUtilization, want)
	}
}

// TestCPUUtilizationCapped: busy thread-seconds above what the
// provisioned threads could burn in the simulated time (which the model
// only reaches through float rounding) report as full utilization. The
// over-busy phase is a ledger step whose wall is shorter than its compute.
func TestCPUUtilizationCapped(t *testing.T) {
	c, err := New(Config{Nodes: 1, Comm: MPI()})
	if err != nil {
		t.Fatal(err)
	}
	c.ledger = append(c.ledger, step{cat: "cluster.phase", compute: []float64{1}, net: []float64{0},
		bytes: []int64{0}, msgs: []int64{0}, wall: 0.5})
	if r := c.Report(); r.CPUUtilization != 1 {
		t.Errorf("CPUUtilization = %v, want clamped to 1", r.CPUUtilization)
	}
}

// TestReportFoldsTheLedger charges hand-built steps — a phase, a failed
// phase, a checkpoint write and a restore — with and without Overlap, and
// pins every Report field exactly, the ones the host clock feeds in a
// real run included. The seconds are dyadic, so every sum is exact.
func TestReportFoldsTheLedger(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		c, err := New(Config{Nodes: 2, WorkersPerNode: 12, Overlap: overlap, MemoryPerNode: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		c.RecordMemory(1, 777)
		c.charge(step{cat: "cluster.phase", compute: []float64{0.5, 0.25}, net: []float64{0.125, 0.375},
			bytes: []int64{1000, 6000}, msgs: []int64{2, 1}})
		c.charge(step{cat: "cluster.fault", compute: []float64{0.25, 0}, fixed: 0.5})
		c.charge(step{cat: "cluster.checkpoint", fixed: 0.25, ckptBytes: 4096})
		c.charge(step{cat: "cluster.recovery", fixed: 0.125, ckptBytes: 4096, replayed: 3})

		// The phase's wall is its slowest compute plus its slowest network
		// time, 0.5 + 0.375, or their max under Overlap; the failed phase
		// charges its partial compute plus detection, 0.25 + 0.5.
		phase := 0.875
		if overlap {
			phase = 0.5
		}
		sim := phase + 0.75 + 0.25 + 0.125
		want := Report{
			Nodes:                2,
			SimulatedSeconds:     sim,
			ComputeSeconds:       0.5,
			NetworkSeconds:       0.375,
			CPUUtilization:       (0.5*12 + 0.25*12) / (sim * ThreadsPerNode * 2),
			BytesSent:            7000,
			MessagesSent:         3,
			PeakNetworkBandwidth: 6000 / 0.375,
			MemoryFootprintBytes: 777,
			MemoryPerNode:        1 << 20,
			CheckpointSeconds:    0.25,
			CheckpointBytes:      4096,
			Checkpoints:          1,
			RecoverySeconds:      0.75 + 0.125,
			Recoveries:           1,
			FailedPhases:         1,
			ReplayedPhases:       3,
		}
		if got := c.Report(); got != want {
			t.Errorf("Overlap=%v:\n got %+v\nwant %+v", overlap, got, want)
		}
		if c.VirtualSeconds() != sim {
			t.Errorf("Overlap=%v: VirtualSeconds = %v, want %v", overlap, c.VirtualSeconds(), sim)
		}
	}
}

// TestEmptyReport: a cluster that ran nothing reports zero time and
// utilization, and no modeled capacity gives a memory fraction of 0.
func TestEmptyReport(t *testing.T) {
	c, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.CPUUtilization != 0 || r.SimulatedSeconds != 0 || r.BytesSent != 0 || r.MemoryFootprintBytes != 0 {
		t.Errorf("empty report not zeroed: %+v", r)
	}
	if r.MemoryFraction() != 0 {
		t.Errorf("MemoryFraction with no capacity = %v", r.MemoryFraction())
	}
}

func TestMemoryFraction(t *testing.T) {
	c, err := New(Config{Nodes: 1, MemoryPerNode: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c.RecordMemory(0, 250)
	if f := c.Report().MemoryFraction(); f != 0.25 {
		t.Errorf("MemoryFraction = %v, want 0.25", f)
	}
}

// TestConcurrentAccountAndRecordMemory exists to run under `go test
// -race`: one node's compute fans out across goroutines that charge
// traffic and raise memory marks for every node at once, and the report
// loses none of it.
func TestConcurrentAccountAndRecordMemory(t *testing.T) {
	const nodes = 8
	c, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RunPhase(func(node int) error {
		if node != 0 {
			return nil
		}
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					c.Account(n, 1, 1)
					c.RecordMemory(n, int64(j))
				}
			}(n)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.BytesSent != 800 || r.MessagesSent != 800 {
		t.Errorf("concurrent traffic lost: %d/%d", r.BytesSent, r.MessagesSent)
	}
	if r.MemoryFootprintBytes != 99 {
		t.Errorf("MemoryFootprintBytes = %d, want 99", r.MemoryFootprintBytes)
	}
}

// TestReportClockIsTheVirtualClock: through checkpoints, an injected
// crash and its recovery, the Report's simulated seconds are the virtual
// clock engines place their spans on, bit for bit, and every one of
// those seconds is charged to exactly one of compute, network,
// checkpointing or recovery. On every node's track the cluster's spans
// (phases, the failed phase, checkpoints, the restore) tile the clock
// from 0 to VirtualSeconds: a charge that moves the clock without a span,
// or a span that does not move it, leaves a gap or an overlap.
func TestReportClockIsTheVirtualClock(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 2}
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 3, Node: 1})
	cfg.Trace = trace.New()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &toyEngine{c: c}
	if err := c.Recovery(e.snapshot, e.restore).Run(e.step); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Recoveries != 1 || r.Checkpoints == 0 {
		t.Fatalf("Recoveries=%d Checkpoints=%d, want one recovery and a checkpoint", r.Recoveries, r.Checkpoints)
	}
	if math.Float64bits(r.SimulatedSeconds) != math.Float64bits(c.VirtualSeconds()) {
		t.Errorf("SimulatedSeconds = %v, VirtualSeconds = %v", r.SimulatedSeconds, c.VirtualSeconds())
	}
	parts := r.ComputeSeconds + r.NetworkSeconds + r.CheckpointSeconds + r.RecoverySeconds
	if math.Abs(parts-r.SimulatedSeconds) > 1e-12*r.SimulatedSeconds {
		t.Errorf("compute+network+checkpoint+recovery = %v, SimulatedSeconds = %v", parts, r.SimulatedSeconds)
	}

	// RecordVirtual truncates each start and duration to whole
	// nanoseconds, so a span may start 1 ns off its predecessor's end.
	ends := map[int]int64{}
	cats := map[string]bool{}
	for _, ev := range cfg.Trace.Events() {
		if !strings.HasPrefix(ev.Cat, "cluster.") {
			continue
		}
		cats[ev.Cat] = true
		if gap := ev.StartNS - ends[ev.Pid]; gap < -1 || gap > 1 {
			t.Errorf("pid %d: %s %q starts at %d ns, the previous span ended at %d ns", ev.Pid, ev.Cat, ev.Name, ev.StartNS, ends[ev.Pid])
		}
		ends[ev.Pid] = ev.StartNS + ev.DurNS
	}
	for _, cat := range []string{"cluster.phase", "cluster.fault", "cluster.checkpoint", "cluster.recovery"} {
		if !cats[cat] {
			t.Errorf("no %s span on the trace", cat)
		}
	}
	if len(ends) != cfg.Nodes {
		t.Fatalf("cluster spans on %d tracks, want %d", len(ends), cfg.Nodes)
	}
	for pid, end := range ends {
		if gap := int64(c.VirtualSeconds()*1e9) - end; gap < -1 || gap > 1 {
			t.Errorf("pid %d: spans end at %d ns, the virtual clock reads %v s", pid, end, c.VirtualSeconds())
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KB",
		3 << 20: "3.0MB",
		5 << 30: "5.0GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytesNegative(t *testing.T) {
	cases := map[int64]string{
		-512:     "-512B",
		-2048:    "-2.0KB",
		-5 << 30: "-5.0GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
	// MinInt64 cannot be negated; it must still format, signed.
	got := FormatBytes(math.MinInt64)
	if !strings.HasPrefix(got, "-") || !strings.HasSuffix(got, "EB") {
		t.Errorf("FormatBytes(MinInt64) = %q", got)
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		0:               "0B/s",
		512.5:           "512B/s",
		2048:            "2.0KB/s",
		5.5e9:           "5.1GB/s",
		-2048:           "-2.0KB/s",
		1.5 * (1 << 40): "1.5TB/s",
	}
	for in, want := range cases {
		if got := formatRate(in); got != want {
			t.Errorf("formatRate(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestReportStringFractionalBandwidth pins the String fix: a sub-GB/s peak
// rate must render as a rate, not truncate through an int64 byte count.
func TestReportStringFractionalBandwidth(t *testing.T) {
	r := Report{Nodes: 1, PeakNetworkBandwidth: 1536.0}
	if s := r.String(); !strings.Contains(s, "peakBW=1.5KB/s") {
		t.Errorf("String() = %q, want peakBW=1.5KB/s", s)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Nodes: 4, SimulatedSeconds: 1.5, CPUUtilization: 0.5, BytesSent: 2048}
	s := r.String()
	for _, frag := range []string{"nodes=4", "cpu=50%", "2.0KB"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
