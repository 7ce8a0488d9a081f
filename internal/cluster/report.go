package cluster

import (
	"fmt"
	"math"
)

// Report is the paper's §5.4 / Figure 6 system-metric model of a
// simulated run: the four quantities the paper measures with
// sar/sysstat — CPU utilization, memory footprint, total network bytes
// sent, peak achieved network bandwidth — folded from the cluster's
// ledger of charged steps rather than read off OS counters, plus the
// checkpoint and recovery counts of DESIGN.md §10. The harness prints it
// for Figure 6 and uses it to explain slowdowns.
//
// Each field is either *modelled* — a function of the engines' traffic
// and memory accounting and the comm-layer and checkpoint cost models
// only, identical in every run and at every GOMAXPROCS (the harness's
// model golden pins each one) — or *measured*: it folds in node compute
// time read off the host clock, so it moves from run to run.
type Report struct {
	// Nodes is the simulated node count. Modelled.
	Nodes int

	// SimulatedSeconds is the modeled wall-clock of the run: per-phase
	// compute plus (possibly overlapped) network time. Measured.
	SimulatedSeconds float64
	// ComputeSeconds and NetworkSeconds are the two addends before
	// overlap, summed over phases (max over nodes within each phase).
	// ComputeSeconds is measured, NetworkSeconds modelled.
	ComputeSeconds, NetworkSeconds float64

	// CPUUtilization is useful-thread-seconds divided by
	// (SimulatedSeconds × provisioned threads × nodes), in [0,1].
	// Measured.
	CPUUtilization float64

	// BytesSent is the total bytes put on the (modeled) wire by all nodes;
	// MessagesSent counts discrete messages. Modelled.
	BytesSent    int64
	MessagesSent int64

	// PeakNetworkBandwidth is the highest per-phase achieved rate
	// (bytes/s) at any node. Modelled.
	PeakNetworkBandwidth float64

	// MemoryFootprintBytes is the high-water per-node footprint (graph
	// partitions plus message buffers); MemoryPerNode is the modeled node
	// capacity it is normalized against in Figure 6. Modelled.
	MemoryFootprintBytes int64
	MemoryPerNode        int64

	// CheckpointSeconds is virtual time spent writing checkpoints; it is
	// included in SimulatedSeconds. CheckpointBytes and Checkpoints size
	// the snapshots (DESIGN.md §10). Modelled.
	CheckpointSeconds float64
	CheckpointBytes   int64
	Checkpoints       int

	// RecoverySeconds is virtual time lost to failures: aborted-phase
	// work, failure detection, and checkpoint restore reads. Included in
	// SimulatedSeconds; measured, since the aborted work is. Recoveries
	// counts rollback-and-replay episodes, FailedPhases the phases that
	// aborted, and ReplayedPhases the executed phases whose work a
	// rollback discarded and redid; those three are modelled.
	RecoverySeconds float64
	Recoveries      int
	FailedPhases    int
	ReplayedPhases  int
}

// Report returns the run's metrics so far: a fold over the ledger in
// charge order, plus the memory high-water mark. The simulated seconds
// sum to the cluster's one virtual clock, bit for bit, and CPU
// utilization is normalized against them.
func (c *Cluster) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{Nodes: c.cfg.Nodes, MemoryPerNode: c.cfg.MemoryPerNode, MemoryFootprintBytes: c.memHighWater}
	var busyThreadSec float64
	for _, s := range c.ledger {
		r.SimulatedSeconds += s.wall
		switch s.cat {
		case "cluster.phase":
			compute, net := s.peaks()
			r.ComputeSeconds += compute
			r.NetworkSeconds += net
			var busy float64
			for n := range s.compute {
				r.BytesSent += s.bytes[n]
				r.MessagesSent += s.msgs[n]
				if s.net[n] > 0 {
					r.PeakNetworkBandwidth = max(r.PeakNetworkBandwidth, float64(s.bytes[n])/s.net[n])
				}
				busy += s.compute[n] * float64(c.cfg.WorkersPerNode)
			}
			busyThreadSec += busy
		case "cluster.fault":
			r.RecoverySeconds += s.wall
			r.FailedPhases++
		case "cluster.checkpoint":
			r.CheckpointSeconds += s.wall
			r.CheckpointBytes += s.ckptBytes
			r.Checkpoints++
		case "cluster.recovery":
			r.RecoverySeconds += s.wall
			r.Recoveries++
			r.ReplayedPhases += s.replayed
		}
	}
	if r.SimulatedSeconds > 0 {
		r.CPUUtilization = min(busyThreadSec/(r.SimulatedSeconds*ThreadsPerNode*float64(c.cfg.Nodes)), 1)
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
