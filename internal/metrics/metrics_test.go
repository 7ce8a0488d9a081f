package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(4, 8, 1<<30)
	c.AddPhase(2.0, 1.5, 0.5, 16.0)
	c.AddPhase(1.0, 0.5, 0.5, 8.0)
	c.AddTraffic(1000, 2, 2000)
	c.AddTraffic(3000, 1, 1500)
	c.RecordMemory(0, 100)
	c.RecordMemory(1, 500)
	c.RecordMemory(1, 300) // lower: ignored

	r := c.Report()
	if r.SimulatedSeconds != 3.0 {
		t.Errorf("SimulatedSeconds = %v", r.SimulatedSeconds)
	}
	if r.ComputeSeconds != 2.0 || r.NetworkSeconds != 1.0 {
		t.Errorf("compute/network = %v/%v", r.ComputeSeconds, r.NetworkSeconds)
	}
	if r.BytesSent != 4000 || r.MessagesSent != 3 {
		t.Errorf("traffic = %d/%d", r.BytesSent, r.MessagesSent)
	}
	if r.PeakNetworkBandwidth != 2000 {
		t.Errorf("PeakNetworkBandwidth = %v", r.PeakNetworkBandwidth)
	}
	if r.MemoryFootprintBytes != 500 {
		t.Errorf("MemoryFootprintBytes = %d", r.MemoryFootprintBytes)
	}
	// util = 24 busy / (3s × 8 threads × 4 nodes) = 0.25
	if r.CPUUtilization != 0.25 {
		t.Errorf("CPUUtilization = %v, want 0.25", r.CPUUtilization)
	}
}

func TestCPUUtilizationCapped(t *testing.T) {
	c := NewCollector(1, 1, 0)
	c.AddPhase(1.0, 1.0, 0, 100)
	if r := c.Report(); r.CPUUtilization != 1 {
		t.Errorf("CPUUtilization = %v, want capped at 1", r.CPUUtilization)
	}
}

func TestEmptyReport(t *testing.T) {
	r := NewCollector(2, 4, 0).Report()
	if r.CPUUtilization != 0 || r.SimulatedSeconds != 0 {
		t.Errorf("empty report not zeroed: %+v", r)
	}
	if r.MemoryFraction() != 0 {
		t.Errorf("MemoryFraction with no capacity = %v", r.MemoryFraction())
	}
}

func TestMemoryFraction(t *testing.T) {
	c := NewCollector(1, 1, 1000)
	c.RecordMemory(0, 250)
	if f := c.Report().MemoryFraction(); f != 0.25 {
		t.Errorf("MemoryFraction = %v, want 0.25", f)
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector(8, 4, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.AddTraffic(1, 1, 100)
				c.RecordMemory(n, int64(j))
			}
		}(i)
	}
	wg.Wait()
	r := c.Report()
	if r.BytesSent != 800 || r.MessagesSent != 800 {
		t.Errorf("concurrent traffic lost: %d/%d", r.BytesSent, r.MessagesSent)
	}
	if r.MemoryFootprintBytes != 99 {
		t.Errorf("MemoryFootprintBytes = %d, want 99", r.MemoryFootprintBytes)
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
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%v) = %q, want %q", in, got, want)
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

func TestFormatTable(t *testing.T) {
	reports := []Report{
		{CPUUtilization: 0.9, PeakNetworkBandwidth: 5e9, BytesSent: 100, MemoryFootprintBytes: 10, MemoryPerNode: 100},
		{CPUUtilization: 0.1, PeakNetworkBandwidth: 0.5e9, BytesSent: 400, MemoryFootprintBytes: 50, MemoryPerNode: 100},
	}
	out := FormatTable([]string{"native", "giraph"}, reports, 5.5e9)
	if !strings.Contains(out, "native") || !strings.Contains(out, "giraph") {
		t.Fatalf("table missing rows: %q", out)
	}
	if !strings.Contains(out, "100.0") { // giraph sends the max bytes
		t.Errorf("table missing normalized 100%% row: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("table has %d lines, want header + 2 rows", len(lines))
	}
}

// TestFormatTableZeroReference: a zero reference bandwidth must not divide
// by zero — the bandwidth column reads 0.
func TestFormatTableZeroReference(t *testing.T) {
	out := FormatTable([]string{"x"}, []Report{{PeakNetworkBandwidth: 5e9}}, 0)
	if !strings.Contains(out, "x") {
		t.Fatalf("table missing row: %q", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("zero-reference table produced Inf/NaN: %q", out)
	}
}

// TestFormatTableEmpty: no reports yields just the header.
func TestFormatTableEmpty(t *testing.T) {
	out := FormatTable(nil, nil, 1e9)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "framework") {
		t.Errorf("empty table = %q", out)
	}
}

// TestFormatTableMissingLabels: more reports than labels must not panic;
// unlabeled rows get a placeholder.
func TestFormatTableMissingLabels(t *testing.T) {
	out := FormatTable([]string{"only"}, []Report{{}, {}}, 1e9)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[2], "?") {
		t.Errorf("unlabeled row = %q, want ? placeholder", lines[2])
	}
}
