// Package metrics is the paper's §5.4 / Figure 6 system-metric model of a
// simulated run and nothing else: the four quantities the paper measures
// with sar/sysstat — CPU utilization, memory footprint, total network
// bytes sent, peak achieved network bandwidth — gathered by a Collector
// from the cluster simulation's ground truth rather than OS counters, the
// Report that carries them, and three formatters. Live counters, gauges
// and histograms are internal/obs; spans are internal/trace (DESIGN.md §9).
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Report is the per-run summary the harness prints for Figure 6 and uses
// to explain slowdowns.
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
		FormatBytes(r.BytesSent), FormatRate(r.PeakNetworkBandwidth),
		FormatBytes(r.MemoryFootprintBytes))
}

// FormatBytes renders a byte count with a binary-ish unit suffix.
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

// FormatRate renders a bytes/second rate with a unit suffix, keeping the
// float precision an int64 round-trip would destroy.
func FormatRate(bytesPerSec float64) string {
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

// Collector accumulates per-phase observations during a cluster run. It is
// safe for concurrent use by per-node goroutines.
type Collector struct {
	mu sync.Mutex

	nodes        int
	threadsPer   int
	memPerNode   int64
	simSeconds   float64
	computeSec   float64
	networkSec   float64
	busyThreadS  float64
	bytesSent    int64
	messagesSent int64
	peakBW       float64
	memHighWater map[int]int64

	ckptSec        float64
	ckptBytes      int64
	ckpts          int
	recoverySec    float64
	recoveries     int
	failedPhases   int
	replayedPhases int
}

// NewCollector returns a collector for a run over the given node count and
// provisioned thread count per node. memPerNode (may be 0) is the modeled
// node memory capacity.
func NewCollector(nodes, threadsPerNode int, memPerNode int64) *Collector {
	return &Collector{
		nodes:        nodes,
		threadsPer:   threadsPerNode,
		memPerNode:   memPerNode,
		memHighWater: make(map[int]int64),
	}
}

// AddPhase records one phase's modeled times: the phase's contribution to
// wall clock, its compute and network components, and the useful
// thread-seconds burned across all nodes.
func (c *Collector) AddPhase(wallSeconds, computeSeconds, networkSeconds, busyThreadSeconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simSeconds += wallSeconds
	c.computeSec += computeSeconds
	c.networkSec += networkSeconds
	c.busyThreadS += busyThreadSeconds
}

// AddTraffic records bytes and message counts put on the wire by one node
// during a phase, with the rate it achieved.
func (c *Collector) AddTraffic(bytes, messages int64, achievedBW float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytesSent += bytes
	c.messagesSent += messages
	if achievedBW > c.peakBW {
		c.peakBW = achievedBW
	}
}

// AddCheckpoint charges one checkpoint write: wallSeconds joins the
// simulated clock (a synchronous checkpoint stalls the run, as Pregel's
// does) and the checkpoint tallies.
func (c *Collector) AddCheckpoint(wallSeconds float64, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simSeconds += wallSeconds
	c.ckptSec += wallSeconds
	c.ckptBytes += bytes
	c.ckpts++
}

// AddFailedPhase charges the virtual time an aborted phase burned
// (partial compute plus failure detection) to the simulated clock and the
// recovery tally.
func (c *Collector) AddFailedPhase(wallSeconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simSeconds += wallSeconds
	c.recoverySec += wallSeconds
	c.failedPhases++
}

// AddRecovery charges one rollback: the restore read joins the simulated
// clock, and replayedPhases records how many executed phases the rollback
// discarded (they re-execute and charge again as ordinary phases).
func (c *Collector) AddRecovery(restoreSeconds float64, replayedPhases int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simSeconds += restoreSeconds
	c.recoverySec += restoreSeconds
	c.recoveries++
	c.replayedPhases += replayedPhases
}

// RecordMemory raises node's memory high-water mark to at least bytes.
func (c *Collector) RecordMemory(node int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.memHighWater[node] {
		c.memHighWater[node] = bytes
	}
}

// Report finalizes the collected observations.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Nodes:                c.nodes,
		SimulatedSeconds:     c.simSeconds,
		ComputeSeconds:       c.computeSec,
		NetworkSeconds:       c.networkSec,
		BytesSent:            c.bytesSent,
		MessagesSent:         c.messagesSent,
		PeakNetworkBandwidth: c.peakBW,
		MemoryPerNode:        c.memPerNode,
		CheckpointSeconds:    c.ckptSec,
		CheckpointBytes:      c.ckptBytes,
		Checkpoints:          c.ckpts,
		RecoverySeconds:      c.recoverySec,
		Recoveries:           c.recoveries,
		FailedPhases:         c.failedPhases,
		ReplayedPhases:       c.replayedPhases,
	}
	for _, hw := range c.memHighWater {
		if hw > r.MemoryFootprintBytes {
			r.MemoryFootprintBytes = hw
		}
	}
	if c.simSeconds > 0 && c.threadsPer > 0 && c.nodes > 0 {
		r.CPUUtilization = c.busyThreadS / (c.simSeconds * float64(c.threadsPer) * float64(c.nodes))
		if r.CPUUtilization > 1 {
			r.CPUUtilization = 1
		}
	}
	return r
}

// FormatTable renders labeled reports as the normalized four-metric table
// of Figure 6. Values are percentages of: full CPU, the reference peak
// bandwidth, node memory capacity, and the largest byte count among rows.
func FormatTable(labels []string, reports []Report, refBandwidth float64) string {
	var maxBytes int64
	for _, r := range reports {
		if r.BytesSent > maxBytes {
			maxBytes = r.BytesSent
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %14s %12s %14s\n", "framework", "CPU util %", "peak net BW %", "memory %", "bytes sent %")
	for i, r := range reports {
		label := "?"
		if i < len(labels) {
			label = labels[i]
		}
		bwPct, memPct, sentPct := 0.0, 0.0, 0.0
		if refBandwidth > 0 {
			bwPct = 100 * r.PeakNetworkBandwidth / refBandwidth
		}
		memPct = 100 * r.MemoryFraction()
		if maxBytes > 0 {
			sentPct = 100 * float64(r.BytesSent) / float64(maxBytes)
		}
		fmt.Fprintf(&b, "%-12s %12.1f %14.1f %12.1f %14.1f\n",
			label, 100*r.CPUUtilization, bwPct, memPct, sentPct)
	}
	return b.String()
}
