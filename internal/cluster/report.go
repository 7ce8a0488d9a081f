package cluster

import (
	"fmt"
	"math"
)

// Report is the paper's §5.4 / Figure 6 system-metric model of a
// simulated run: the four quantities the paper measures with
// sar/sysstat — CPU utilization, memory footprint, total network bytes
// sent, peak achieved network bandwidth — taken from the cluster's own
// ground truth rather than OS counters, plus the checkpoint and recovery
// tallies of DESIGN.md §10. The harness prints it for Figure 6 and uses
// it to explain slowdowns.
type Report struct {
	Nodes int

	// SimulatedSeconds is the modeled wall-clock of the run: per-phase
	// compute plus (possibly overlapped) network time.
	SimulatedSeconds float64
	// ComputeSeconds and NetworkSeconds are the two addends before
	// overlap, summed over phases (max over nodes within each phase).
	ComputeSeconds, NetworkSeconds float64

	// CPUUtilization is useful-thread-seconds divided by
	// (SimulatedSeconds × provisioned threads × nodes), in [0,1].
	CPUUtilization float64

	// BytesSent is the total bytes put on the (modeled) wire by all nodes;
	// MessagesSent counts discrete messages.
	BytesSent    int64
	MessagesSent int64

	// PeakNetworkBandwidth is the highest per-phase achieved rate
	// (bytes/s) at any node.
	PeakNetworkBandwidth float64

	// MemoryFootprintBytes is the high-water per-node footprint (graph
	// partitions plus message buffers); MemoryPerNode is the modeled node
	// capacity it is normalized against in Figure 6.
	MemoryFootprintBytes int64
	MemoryPerNode        int64

	// CheckpointSeconds is virtual time spent writing checkpoints; it is
	// included in SimulatedSeconds. CheckpointBytes and Checkpoints size
	// the snapshots (DESIGN.md §10).
	CheckpointSeconds float64
	CheckpointBytes   int64
	Checkpoints       int

	// RecoverySeconds is virtual time lost to failures: aborted-phase
	// work, failure detection, and checkpoint restore reads. Included in
	// SimulatedSeconds. Recoveries counts rollback-and-replay episodes,
	// FailedPhases the phases that aborted, and ReplayedPhases the
	// executed phases whose work a rollback discarded and redid.
	RecoverySeconds float64
	Recoveries      int
	FailedPhases    int
	ReplayedPhases  int
}

// Report returns the run's metrics so far. The simulated seconds are the
// cluster's one virtual clock, and CPU utilization is normalized against
// it.
func (c *Cluster) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.tally
	r.SimulatedSeconds = c.virtualSec
	r.MemoryFootprintBytes = c.memHighWater
	if c.virtualSec > 0 {
		r.CPUUtilization = min(c.busyThreadSec/(c.virtualSec*float64(c.cfg.ThreadsPerNode)*float64(c.cfg.Nodes)), 1)
	}
	return r
}

// MemoryFraction reports footprint / capacity, or 0 when no capacity was
// modeled.
func (r Report) MemoryFraction() float64 {
	if r.MemoryPerNode == 0 {
		return 0
	}
	return float64(r.MemoryFootprintBytes) / float64(r.MemoryPerNode)
}

// String renders a compact single-line summary. The peak-bandwidth rate is
// formatted as the float it is, not truncated through an integer byte
// count.
func (r Report) String() string {
	return fmt.Sprintf("nodes=%d time=%.4gs cpu=%.0f%% sent=%s peakBW=%s mem=%s",
		r.Nodes, r.SimulatedSeconds, 100*r.CPUUtilization,
		FormatBytes(r.BytesSent), formatRate(r.PeakNetworkBandwidth),
		FormatBytes(r.MemoryFootprintBytes))
}

// FormatBytes renders a byte count with a binary-ish unit suffix, the
// unit Report.String and the harness's memory and traffic tables share.
// Negative counts (anomalies worth surfacing) format as the signed
// magnitude rather than falling through to the raw value.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < 0 {
		if b == math.MinInt64 {
			// -b would overflow; one byte of drift at this magnitude is
			// beyond any modeled quantity, so format via float.
			return fmt.Sprintf("-%.1fEB", -float64(b)/float64(1<<60))
		}
		return "-" + FormatBytes(-b)
	}
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}

// formatRate renders a bytes/second rate with a unit suffix, keeping the
// float precision an int64 round-trip would destroy.
func formatRate(bytesPerSec float64) string {
	neg := ""
	if bytesPerSec < 0 {
		neg = "-"
		bytesPerSec = -bytesPerSec
	}
	const unit = 1024
	if bytesPerSec < unit {
		return fmt.Sprintf("%s%.3gB/s", neg, bytesPerSec)
	}
	div, exp := float64(unit), 0
	for bytesPerSec/div >= unit && exp < 5 {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%s%.1f%cB/s", neg, bytesPerSec/div, "KMGTPE"[exp])
}
