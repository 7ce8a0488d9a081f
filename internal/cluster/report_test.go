package cluster

import (
	"math"
	"strings"
	"sync"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/fault"
)

// TestReportTallies drives a cluster through accounted traffic and
// recorded memory and checks each Report field against the model: the
// counters sum, the bandwidth peak is the best per-node achieved rate, a
// lower memory mark never lowers the high-water mark, and utilization is
// busy thread-seconds over provisioned thread-seconds.
func TestReportTallies(t *testing.T) {
	cfg := Config{Nodes: 1, ThreadsPerNode: 8, Comm: MPI(), MemoryPerNode: 1 << 30}
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
	// One node with every thread busy: busy thread-seconds are 8 ×
	// ComputeSeconds and the denominator 8 × SimulatedSeconds, both exact
	// power-of-two scalings, so the ratio is exact.
	if want := r.ComputeSeconds / r.SimulatedSeconds; r.CPUUtilization != want {
		t.Errorf("CPUUtilization = %v, want %v", r.CPUUtilization, want)
	}
}

// TestCPUUtilizationCapped: busy thread-seconds above what the
// provisioned threads could burn in the simulated time (which the model
// only reaches through float rounding) report as full utilization.
func TestCPUUtilizationCapped(t *testing.T) {
	c, err := New(Config{Nodes: 1, ThreadsPerNode: 1, Comm: MPI()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunPhase(func(n int) error { c.Account(n, 1, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	c.busyThreadSec = 100 * c.VirtualSeconds()
	if r := c.Report(); r.CPUUtilization != 1 {
		t.Errorf("CPUUtilization = %v, want clamped to 1", r.CPUUtilization)
	}
}

// TestEmptyReport: a cluster that ran nothing reports zero time and
// utilization, and no modeled capacity gives a memory fraction of 0.
func TestEmptyReport(t *testing.T) {
	c, err := New(Config{Nodes: 2, ThreadsPerNode: 4})
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
	c, err := New(Config{Nodes: 1, ThreadsPerNode: 1, MemoryPerNode: 1000})
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
	c, err := New(Config{Nodes: nodes, ThreadsPerNode: 4})
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
// checkpointing or recovery.
func TestReportClockIsTheVirtualClock(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 2}
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 3, Node: 1})
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
