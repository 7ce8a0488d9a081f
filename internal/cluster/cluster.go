// Package cluster simulates the multi-node testbed of the paper (§4.3): a
// set of compute nodes connected by an interconnect driven through one of
// several communication layers (MPI, sockets, netty).
//
// Substitution note (DESIGN.md §3): we have no 64-node InfiniBand cluster,
// so algorithm compute runs as real Go code on real data — one logical node
// at a time, so per-node times are cleanly measured — while the network is
// a model: each phase charges latency·messages + bytes/bandwidth of virtual
// time per node. Every advance of that virtual clock is a step in one
// ledger; run time, bytes sent, peak bandwidth and CPU utilization are a
// fold over it, and memory footprint a running high-water mark: exactly
// the quantities the paper's multi-node analysis rests on.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/fault"
	"graphmaze/internal/obs"
	"graphmaze/internal/trace"
)

// CommLayer models a communication substrate: the peak bandwidth a node
// can drive and the per-message software latency. The presets are
// calibrated to the paper's measurements (Figure 6 and §6.1.3).
type CommLayer struct {
	Name      string
	Bandwidth float64 // bytes/second per node
	Latency   float64 // seconds per message
}

// MPI is the native/CombBLAS layer: FDR InfiniBand driven by MPI, the
// paper's 5.5 GB/s/node peak.
func MPI() CommLayer { return CommLayer{Name: "mpi", Bandwidth: 5.5e9, Latency: 2e-6} }

// SingleSocket is one TCP socket pair per node pair over IPoIB — what
// unoptimized SociaLite used (the paper measured "poor peak network
// performance of about 0.5 GBps", §6.1.3).
func SingleSocket() CommLayer {
	return CommLayer{Name: "socket", Bandwidth: 0.5e9, Latency: 3e-5}
}

// IPoIBSockets is GraphLab's socket stack: the paper measures it at 20–25%
// of the 5.5 GB/s hardware peak (§6.2).
func IPoIBSockets() CommLayer {
	return CommLayer{Name: "ipoib", Bandwidth: 1.2e9, Latency: 3e-5}
}

// MultiSocket is several parallel sockets per node pair, the paper's
// SociaLite optimization (§6.1.3, "close to 2 GBps").
func MultiSocket() CommLayer {
	return CommLayer{Name: "multisocket", Bandwidth: 2.0e9, Latency: 3e-5}
}

// Netty is Giraph's network I/O library: under 0.5 GB/s with high
// per-message cost (the paper measures <10% network utilization).
func Netty() CommLayer { return CommLayer{Name: "netty", Bandwidth: 0.35e9, Latency: 6e-5} }

// ThreadsPerNode is the provisioned hardware thread count of every
// simulated node: each of the paper's dual-socket Xeon E5-2697 testbed
// nodes exposes 48 (§4.3). CPU utilization is normalized against it.
const ThreadsPerNode = 48

// MaxRecoveries bounds the rollback-and-replay attempts of one run before
// a Recovery gives up: the fault-tolerance subsystem's bound since it was
// built (DESIGN.md §10), which no experiment or service sets otherwise.
const MaxRecoveries = 3

// Config sizes a simulated cluster.
type Config struct {
	// Nodes is the number of logical machines.
	Nodes int
	// WorkersPerNode is how many of the ThreadsPerNode threads the engine
	// actually keeps busy (Giraph: 4). Defaults to ThreadsPerNode.
	WorkersPerNode int
	// Comm is the communication layer model.
	Comm CommLayer
	// Overlap enables compute/communication overlap: a phase costs
	// max(compute, net) instead of compute+net (paper §6.1.1).
	Overlap bool
	// MemoryPerNode is the modeled node memory capacity (the paper's 64
	// GB), used only for normalizing the footprint metric. 0 disables
	// normalization.
	MemoryPerNode int64
	// Trace, when non-nil, receives one virtual-time span per node per
	// phase with compute/network/wait attribution (DESIGN.md §9). The nil
	// tracer disables tracing at the cost of a pointer check.
	Trace *trace.Tracer
	// Fault, when non-nil, injects the planned failures (node crashes,
	// message loss, stragglers, comm degradation) at the cluster's fault
	// points (DESIGN.md §10). Nil means a healthy cluster.
	Fault *fault.Plan
	// Ckpt configures superstep checkpointing for engines that opt in via
	// Recovery; Interval 0 disables it.
	Ckpt ckpt.Config
}

func (c Config) withDefaults() Config {
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = ThreadsPerNode
	}
	if c.Comm.Bandwidth == 0 {
		c.Comm = MPI()
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.WorkersPerNode < 0 {
		return fmt.Errorf("cluster: negative worker count %d", c.WorkersPerNode)
	}
	if c.WorkersPerNode > ThreadsPerNode {
		return fmt.Errorf("cluster: %d workers exceed %d provisioned threads", c.WorkersPerNode, ThreadsPerNode)
	}
	if c.Comm.Bandwidth < 0 || c.Comm.Latency < 0 {
		return fmt.Errorf("cluster: negative comm parameters")
	}
	return c.Ckpt.Validate()
}

// Cluster is a simulated machine group. Engines structure distributed
// algorithms as a sequence of phases: within RunPhase each node's compute
// function runs and may Send messages; messages are delivered at the start
// of the next phase via Recv.
//
// A Cluster is not safe for concurrent RunPhase calls, but Send, Account
// and RecordMemory may be called concurrently within a phase: a node's
// compute function is free to fan out across goroutines and let each one
// send its own destination's payload or charge traffic directly.
type Cluster struct {
	cfg Config

	mu          sync.Mutex // guards outbox, open's traffic and memHighWater
	outbox      [][][]byte // [from][to] the payload queued this phase
	inbox       [][][]byte // [node] payloads delivered from last phase
	baselineMem []int64    // engine-declared resident bytes per node
	// phases counts executed phases, failed ones included. It is never
	// rolled back: fault plans key their events on it, so a replayed phase
	// runs under a fresh index and a consumed one-shot fault cannot re-fire.
	phases     int
	virtualSec float64 // accumulated modeled wall clock, the one simulated clock

	// ledger holds every charged step in charge order, the record Report
	// folds; open is the phase in flight, which Account charges into.
	// memHighWater is the highest footprint any node recorded (the max
	// over nodes of each node's high-water mark): RecordMemory raises it
	// before the first phase and concurrently within phases.
	ledger       []step
	open         step
	memHighWater int64

	// Per-phase attribution histograms (virtual nanoseconds, one lane per
	// node), resolved once at New from the tracer's registry; all nil — and
	// therefore free — when tracing is disabled.
	computeHist *obs.Histogram
	netHist     *obs.Histogram
	waitHist    *obs.Histogram
}

// step is one advance of the virtual clock, one ledger entry: a phase, a
// failed phase, a checkpoint write or a restore.
type step struct {
	cat, name    string    // span category (the step's kind) and name
	compute, net []float64 // per node: measured compute, modelled network seconds
	bytes, msgs  []int64   // per node: modelled traffic, never charged for a failed phase
	fixed, wall  float64   // detection, write or read seconds; the virtual seconds charged
	ckptBytes    int64     // the checkpoint written or read
	replayed     int       // executed phases a restore rolled back
}

// New returns a cluster for the given configuration.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:         cfg,
		inbox:       make([][][]byte, cfg.Nodes),
		baselineMem: make([]int64, cfg.Nodes),
	}
	c.resetOutbox()
	for n := 0; n < cfg.Nodes; n++ {
		cfg.Trace.SetProcessName(trace.PidNode(n), fmt.Sprintf("node %d (%s, virtual time)", n, cfg.Comm.Name))
	}
	if reg := cfg.Trace.Registry(); reg != nil {
		c.computeHist = reg.Hist("cluster.compute_ns")
		c.netHist = reg.Hist("cluster.network_ns")
		c.waitHist = reg.Hist("cluster.wait_ns")
	}
	return c, nil
}

// resetOutbox empties the outbox and opens the next phase's step.
func (c *Cluster) resetOutbox() {
	n := c.cfg.Nodes
	c.outbox = make([][][]byte, n)
	for i := range c.outbox {
		c.outbox[i] = make([][]byte, n)
	}
	c.open = step{compute: make([]float64, n), net: make([]float64, n), bytes: make([]int64, n), msgs: make([]int64, n)}
}

// Nodes reports the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Config returns the cluster's (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Send queues payload from node `from` to node `to`; it is delivered at
// the next phase boundary. Self-sends are delivered but charged no network
// time. A phase moves at most one payload per (from, to) pair, charged as
// one message: a second Send to the same pair in one phase panics. The
// payload is retained as-is, so the caller must not mutate it until the
// phase boundary. Send is safe for concurrent use within a phase.
func (c *Cluster) Send(from, to int, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outbox[from][to] != nil {
		panic(fmt.Sprintf("cluster: node %d sent to node %d twice in phase %d", from, to, c.phases))
	}
	c.outbox[from][to] = payload
}

// Account charges traffic from node `from` without materializing a
// payload — for engines that compute transfer volumes analytically.
// Account is safe for concurrent use within a phase.
func (c *Cluster) Account(from int, bytes, messages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open.bytes[from] += bytes
	c.open.msgs[from] += messages
}

// Recv returns the payloads delivered to node at the last phase boundary,
// in sender order (one entry per sender that sent, including itself).
func (c *Cluster) Recv(node int) [][]byte { return c.inbox[node] }

// SetBaselineMemory declares node's resident data size (graph partition,
// vertex state). Message buffers are added on top automatically each
// phase.
func (c *Cluster) SetBaselineMemory(node int, bytes int64) {
	c.baselineMem[node] = bytes
	c.RecordMemory(node, bytes)
}

// RecordMemory raises node's footprint high-water mark (for engine-private
// scratch structures). RecordMemory is safe for concurrent use within a
// phase.
func (c *Cluster) RecordMemory(node int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memHighWater = max(c.memHighWater, bytes)
}

// RunPhase executes compute(node) for every node, measures each node's
// compute time, then models the message exchange and advances the virtual
// clock. It returns the first compute error, which aborts the exchange.
//
// Error contract (DESIGN.md §10): when RunPhase returns a non-nil error —
// a compute error, an injected crash, or a transport-detected message
// fault — the cluster is left in a defined state: the outbox and
// accounted-traffic counters are cleared, the inbox still holds the last
// successful phase's deliveries, the executed-phase counter has advanced
// past the failed phase (the counter is monotonic and never rolled back,
// which is what fault plans key on), and the failure-detection latency has
// been charged to the virtual clock. A Recovery rolls engine state back;
// the cluster itself needs no further cleanup before the next RunPhase.
func (c *Cluster) RunPhase(compute func(node int) error) error {
	// A degraded interconnect: divided bandwidth, multiplied per-message
	// latency, for this phase only (a factor of 1 when healthy).
	comm := c.cfg.Comm
	degrade := c.cfg.Fault.DegradeFactor(c.phases)
	comm.Bandwidth /= degrade
	comm.Latency *= degrade

	s := &c.open
	for n := 0; n < c.cfg.Nodes; n++ {
		if c.cfg.Fault.CrashPoint(c.phases, n) {
			return c.failPhase(&fault.Error{Kind: fault.Crash, Phase: c.phases, Node: n})
		}
		start := time.Now()
		if err := compute(n); err != nil {
			s.compute[n] = time.Since(start).Seconds()
			return c.failPhase(fmt.Errorf("cluster: node %d phase %d: %w", n, c.phases, err))
		}
		s.compute[n] = time.Since(start).Seconds() * c.cfg.Fault.SlowFactor(c.phases, n)
	}

	// Transport check: drops and truncations are detected at exchange time
	// (checksum/ack failure), and the phase's delivery is all-or-nothing —
	// a detected message fault aborts the whole exchange, so no engine ever
	// observes a corrupt or partial inbox and checkpoints never capture
	// corruption. That is what keeps recovered runs bit-identical.
	for from := 0; from < c.cfg.Nodes; from++ {
		for to, payload := range c.outbox[from] {
			if to == from || payload == nil {
				continue
			}
			switch c.cfg.Fault.MessageFault(c.phases, from, to) {
			case fault.Dropped:
				return c.failPhase(&fault.Error{Kind: fault.Drop, Phase: c.phases, Node: from, To: to})
			case fault.Truncated:
				return c.failPhase(&fault.Error{Kind: fault.Truncate, Phase: c.phases, Node: from, To: to})
			}
		}
	}

	// Add the sent payloads to each node's accounted traffic and charge
	// its network time.
	for n := 0; n < c.cfg.Nodes; n++ {
		var bufBytes int64
		for to, payload := range c.outbox[n] {
			bufBytes += int64(len(payload))
			if to != n && payload != nil {
				s.bytes[n] += int64(len(payload))
				s.msgs[n]++
			}
		}
		s.net[n] = comm.Latency*float64(s.msgs[n]) + float64(s.bytes[n])/comm.Bandwidth
		// Message buffers live alongside the baseline data.
		c.RecordMemory(n, c.baselineMem[n]+bufBytes)
	}
	s.cat, s.name = "cluster.phase", fmt.Sprintf("phase %d", c.phases)
	c.charge(*s)

	// Deliver: inbox[to] gets every non-nil payload addressed to it.
	for to := 0; to < c.cfg.Nodes; to++ {
		var delivered [][]byte
		for from := 0; from < c.cfg.Nodes; from++ {
			if p := c.outbox[from][to]; p != nil {
				delivered = append(delivered, p)
				// Receive buffers also occupy memory at the receiver.
				c.RecordMemory(to, c.baselineMem[to]+int64(len(p)))
			}
		}
		c.inbox[to] = delivered
	}
	c.resetOutbox()
	c.phases++
	return nil
}

// failPhase implements RunPhase's clean-on-error contract: it charges the
// compute time already spent plus the failure-detection latency to the
// virtual clock (surfaced as the Report's RecoverySeconds), records
// a per-node fault span on the trace, clears the outbox and accounted
// counters, advances the executed-phase counter past the failed phase, and
// returns err. The inbox is left holding the last successful phase's
// deliveries so a Recovery can re-run the step from its checkpoint.
func (c *Cluster) failPhase(err error) error {
	c.open.cat, c.open.name = "cluster.fault", fmt.Sprintf("phase %d failed", c.phases)
	c.open.fixed = c.cfg.Fault.DetectSeconds()
	c.charge(c.open)
	c.resetOutbox()
	c.phases++
	return err
}

// charge closes step s: its wall is the slowest node's compute plus the
// slowest node's network time (their max under Overlap) plus its fixed
// cost. charge advances the virtual clock by it, the only place the clock
// moves, appends s to the ledger and records it as one span per node.
func (c *Cluster) charge(s step) {
	compute, net := s.peaks()
	s.wall = compute + net
	if c.cfg.Overlap {
		s.wall = max(compute, net)
	}
	s.wall += s.fixed
	if c.cfg.Trace.Enabled() {
		for n := 0; n < c.cfg.Nodes; n++ {
			c.cfg.Trace.RecordVirtual(trace.PidNode(n), s.cat, s.name, c.virtualSec, s.wall, c.attribution(&s, n))
		}
	}
	c.virtualSec += s.wall
	c.ledger = append(c.ledger, s)
}

// peaks returns the step's slowest node compute and network seconds.
func (s *step) peaks() (compute, net float64) {
	for n := range s.compute {
		compute = max(compute, s.compute[n])
	}
	for n := range s.net {
		net = max(net, s.net[n])
	}
	return compute, net
}

// attribution is node n's share of step s, its span's args. A phase
// attributes the node's barrier slack (waiting on the slowest node) as
// wait, the imbalance the paper's §6 roadmap rests on, and feeds the same
// split to the per-node histograms; the wall is cluster.phase.dur_ns.
func (c *Cluster) attribution(s *step, n int) map[string]float64 {
	switch s.cat {
	case "cluster.fault":
		return map[string]float64{"compute_sec": s.compute[n], "detect_sec": s.fixed}
	case "cluster.checkpoint":
		return map[string]float64{"bytes": float64(s.ckptBytes)}
	case "cluster.recovery":
		return map[string]float64{"replayed_phases": float64(s.replayed), "bytes": float64(s.ckptBytes)}
	}
	active := s.compute[n] + s.net[n]
	if c.cfg.Overlap {
		active = max(s.compute[n], s.net[n])
	}
	wait := max(s.wall-active, 0)
	c.computeHist.Record(n, int64(s.compute[n]*1e9))
	c.netHist.Record(n, int64(s.net[n]*1e9))
	c.waitHist.Record(n, int64(wait*1e9))
	return map[string]float64{
		"compute_sec": s.compute[n],
		"network_sec": s.net[n],
		"wait_sec":    wait,
		"bytes":       float64(s.bytes[n]),
		"messages":    float64(s.msgs[n]),
	}
}

// VirtualSeconds reports the modeled wall clock accumulated so far.
// Engines bracket RunPhase calls with it to place their own phase spans
// (supersteps, sweeps) on the virtual timeline.
func (c *Cluster) VirtualSeconds() float64 { return c.virtualSec }

// Tracer returns the tracer the cluster was configured with (nil when
// tracing is disabled).
func (c *Cluster) Tracer() *trace.Tracer { return c.cfg.Trace }
