// Package giraph reimplements Giraph's programming model (paper §3): bulk
// synchronous supersteps over vertex programs that exchange boxed
// messages. The runtime reproduces the design choices the paper blames for
// Giraph's 2–3 orders-of-magnitude gap: every message is a heap-allocated
// boxed object, all outgoing messages of a superstep are buffered before
// any delivery, only 4 workers run per node (memory pressure caps worker
// count, §5.4), and the wire goes through the low-bandwidth netty layer.
//
// The §6.1.3 mitigation is also implemented: phased supersteps process a
// fraction of the vertices at a time, trading barrier overhead for a
// bounded message-buffer footprint.
package giraph

import (
	"fmt"
	"sort"
	"sync/atomic"

	"graphmaze/internal/cluster"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// workersPerNode is Giraph's effective parallelism per node: memory limits
// cap it at 4 workers even on 24-core nodes (paper §5.4: "This limits the
// utilization to 4/24 ≈ 16%").
const workersPerNode = 4

// javaObjectOverhead models the per-message heap cost of a boxed Java
// object (header + reference + padding).
const javaObjectOverhead = 48

// messageEnvelopeBytes models Giraph's on-wire framing per message.
const messageEnvelopeBytes = 16

// Context is the view a vertex program gets of its vertex during Compute.
type Context struct {
	id     uint32
	worker int
	rt     *runtime
	value  any
}

// ID reports the vertex id.
func (c *Context) ID() uint32 { return c.id }

// Superstep reports the current superstep number (0-based).
func (c *Context) Superstep() int { return c.rt.superstep }

// NumVertices reports the graph's vertex count.
func (c *Context) NumVertices() uint32 { return c.rt.g.NumVertices }

// Value returns the vertex's current (boxed) value.
func (c *Context) Value() any { return c.value }

// SetValue replaces the vertex's value.
func (c *Context) SetValue(v any) { c.value = v }

// OutEdges returns the vertex's out-neighbour list.
func (c *Context) OutEdges() []uint32 { return c.rt.g.Neighbors(c.id) }

// EdgeWeights returns the weights parallel to OutEdges (nil if
// unweighted).
func (c *Context) EdgeWeights() []float32 { return c.rt.g.EdgeWeights(c.id) }

// SendMessage queues a boxed message for delivery at the next superstep.
func (c *Context) SendMessage(to uint32, msg any) {
	c.rt.send(c, to, msg)
}

// SendMessageToAllEdges queues msg for every out-neighbour.
func (c *Context) SendMessageToAllEdges(msg any) {
	for _, t := range c.rt.g.Neighbors(c.id) {
		c.rt.send(c, t, msg)
	}
}

// VoteToHalt marks the vertex inactive; a delivered message reactivates
// it.
func (c *Context) VoteToHalt() { c.rt.halted.SetAtomic(c.id) }

// AddToCounter accumulates into a named global aggregator (Giraph
// aggregators, used by triangle counting for the global sum).
func (c *Context) AddToCounter(delta int64) { c.rt.counter.Add(delta) }

// Computation is the user's Compute method: invoked once per active vertex
// per superstep with the messages delivered to it.
type Computation func(ctx *Context, messages []any)

// Job configures a BSP run.
type Job struct {
	Graph *graph.CSR
	// Init produces each vertex's initial value.
	Init func(id uint32) any
	// Compute is the vertex program.
	Compute Computation
	// MaxSupersteps bounds the run; 0 means run until global quiescence.
	MaxSupersteps int
	// MessageBytes models the wire size of a message payload.
	MessageBytes func(msg any) int
	// SplitSupersteps > 1 enables phased supersteps: each superstep's
	// vertex set is processed in this many chunks, bounding the message
	// buffer to roughly 1/SplitSupersteps of the full volume (§6.1.3).
	SplitSupersteps int
	// Combiner, when non-nil, merges messages addressed to the same
	// destination at the sender before buffering and transmission — the
	// paper's §6.2 roadmap recommendation for Giraph ("techniques to
	// reduce message buffer sizes ... avoiding duplicated communication").
	Combiner func(a, b any) any
	// Workers overrides the per-node worker count (default 4, Giraph's
	// memory-constrained configuration; §6.2 recommends raising it).
	Workers int
	// Cluster, when non-nil, runs distributed over a 1-D partition.
	Cluster *cluster.Cluster
	// EncodeValue and DecodeValue serialize one vertex value — and one
	// message, which shares the value's type for the built-in algorithms —
	// for superstep checkpointing (DESIGN.md §10). EncodeValue appends to
	// dst; DecodeValue consumes from data and returns the remainder. Both
	// are required when the cluster checkpoints (Ckpt.Interval > 0) and
	// ignored otherwise.
	EncodeValue func(dst []byte, v any) ([]byte, error)
	DecodeValue func(data []byte) (v any, rest []byte, err error)
	// Tracer, when non-nil, receives one span per superstep (active
	// vertices, messages, peak buffered bytes) plus message counters.
	Tracer *trace.Tracer
}

type envelope struct {
	to  uint32
	msg any
}

type runtime struct {
	g         *graph.CSR
	job       *Job
	superstep int
	counter   atomic.Int64
	halted    *bvec

	// staging is per (node, worker): Compute on node n / worker w appends
	// only to staging[n*workers+w], so sends never race. With a Combiner,
	// stagingMap holds the per-destination combined message instead.
	staging    [][]envelope
	stagingMap []map[uint32]any
	workers    int
	nextInbox  [][]any
	part       *graph.Partition1D

	// bufferedBytes tracks the modeled heap held by buffered messages in
	// the current chunk; remoteBytes accumulates modeled wire traffic per
	// node. Both are typed atomics because per-worker Compute goroutines
	// update them concurrently while the superstep loop reads them.
	bufferedBytes atomic.Int64
	remoteBytes   []atomic.Int64
	baselineMem   []int64
}

// bvec is a tiny atomic bitset.
type bvec struct{ words []uint64 }

func newBvec(n uint32) *bvec { return &bvec{words: make([]uint64, (uint64(n)+63)/64)} }
func (b *bvec) Get(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(1<<(i&63)) != 0
}
func (b *bvec) SetAtomic(i uint32) {
	for {
		old := atomic.LoadUint64(&b.words[i>>6])
		if old&(1<<(i&63)) != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&b.words[i>>6], old, old|1<<(i&63)) {
			return
		}
	}
}
func (b *bvec) ClearAtomic(i uint32) {
	for {
		old := atomic.LoadUint64(&b.words[i>>6])
		if old&(1<<(i&63)) == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&b.words[i>>6], old, old&^(1<<(i&63))) {
			return
		}
	}
}

func (rt *runtime) send(ctx *Context, to uint32, msg any) {
	slot := ctx.worker
	if rt.job.Combiner != nil {
		m := rt.stagingMap[slot]
		if old, ok := m[to]; ok {
			// Combined in place: no additional buffer or wire cost.
			m[to] = rt.job.Combiner(old, msg)
			return
		}
		m[to] = msg
		size := int64(javaObjectOverhead)
		if rt.job.MessageBytes != nil {
			size += int64(rt.job.MessageBytes(msg))
		}
		rt.bufferedBytes.Add(size)
		if rt.part != nil {
			src, dst := rt.part.Owner(ctx.id), rt.part.Owner(to)
			if src != dst {
				wire := int64(messageEnvelopeBytes + 4)
				if rt.job.MessageBytes != nil {
					wire += int64(rt.job.MessageBytes(msg))
				}
				rt.remoteBytes[src].Add(wire)
			}
		}
		return
	}
	rt.staging[slot] = append(rt.staging[slot], envelope{to: to, msg: msg})
	size := int64(javaObjectOverhead)
	if rt.job.MessageBytes != nil {
		size += int64(rt.job.MessageBytes(msg))
	}
	rt.bufferedBytes.Add(size)
	if rt.part != nil {
		src, dst := rt.part.Owner(ctx.id), rt.part.Owner(to)
		if src != dst {
			wire := int64(messageEnvelopeBytes + 4)
			if rt.job.MessageBytes != nil {
				wire += int64(rt.job.MessageBytes(msg))
			}
			rt.remoteBytes[src].Add(wire)
		}
	}
}

// runLowered drives a Lowering of the job's vertex program through the
// same superstep loop the stock runtime uses: identical termination
// conditions (MaxSupersteps bound, quiescence when a message-free superstep
// leaves every vertex halted), identical per-superstep spans and counters.
// The result's Values are left for the caller to unbox from the lowering.
func runLowered(job *Job, low Lowering) *Result {
	tr := job.Tracer
	activeCounter := tr.Registry().Counter("giraph.active_vertices")
	msgCounter := tr.Registry().Counter("giraph.messages")
	// Distribution views of the same signals: per-superstep message count
	// and buffered bytes, so the tail (the superstep that blew the buffer
	// budget) survives aggregation.
	msgHist := tr.Registry().Hist("giraph.superstep.messages")
	bufHist := tr.Registry().Hist("giraph.superstep.buffered_bytes")
	var peak int64
	var supersteps int
	lastMsgs := int64(0)
	for s := 0; ; s++ {
		if job.MaxSupersteps > 0 && s >= job.MaxSupersteps {
			break
		}
		if s > 0 && lastMsgs == 0 && low.AllHalted() {
			break
		}
		sp := tr.Begin("giraph.superstep", "superstep").Arg("superstep", float64(s))
		active, msgs := low.Step(s)
		buffered := low.BufferedBytes()
		activeCounter.Add(active)
		msgCounter.Add(msgs)
		sp.Arg("active", float64(active)).
			Arg("messages", float64(msgs)).
			Arg("buffered_bytes", float64(buffered)).End()
		msgHist.Record(0, msgs)
		bufHist.Record(0, buffered)
		if buffered > peak {
			peak = buffered
		}
		lastMsgs = msgs
		supersteps = s + 1
	}
	return &Result{Supersteps: supersteps, PeakBufferedBytes: peak}
}

// Result of a BSP run.
type Result struct {
	Values     []any
	Supersteps int
	Counter    int64
	// PeakBufferedBytes is the high-water modeled message-buffer size.
	PeakBufferedBytes int64
}

// Run executes the job on the stock superstep runtime.
func Run(job *Job) (*Result, error) {
	if job.Graph == nil {
		return nil, fmt.Errorf("giraph: nil graph")
	}
	split := job.SplitSupersteps
	if split < 1 {
		split = 1
	}
	g := job.Graph
	n := g.NumVertices

	workers := job.Workers
	if workers <= 0 {
		workers = workersPerNode
	}
	rt := &runtime{g: g, job: job, halted: newBvec(n), workers: workers}
	values := make([]any, n)
	for i := range values {
		values[i] = job.Init(uint32(i))
	}
	inbox := make([][]any, n)
	nodes := 1
	if job.Cluster != nil {
		nodes = job.Cluster.Nodes()
		part, err := graph.NewPartition1D(g, nodes)
		if err != nil {
			return nil, err
		}
		rt.part = part
		rt.remoteBytes = make([]atomic.Int64, nodes)
		rt.baselineMem = make([]int64, nodes)
		for node := 0; node < nodes; node++ {
			lo, hi := part.Range(node)
			edges := g.Offsets[hi] - g.Offsets[lo]
			// Java-ish resident cost: boxed vertex objects + edge store.
			rt.baselineMem[node] = edges*8 + int64(hi-lo)*64
			job.Cluster.SetBaselineMemory(node, rt.baselineMem[node])
		}
	}

	// computeSlice runs Compute over chunk[lo:hi] with Giraph's 4 workers,
	// staging sends into slots base..base+workers-1.
	computeSlice := func(chunk []uint32, base int) {
		par.ForWorkersIndexed(rt.workers, len(chunk), func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := chunk[i]
				msgs := inbox[v]
				if len(msgs) > 0 {
					rt.halted.ClearAtomic(v)
				}
				ctx := &Context{id: v, worker: base + worker, rt: rt, value: values[v]}
				job.Compute(ctx, msgs)
				values[v] = ctx.value
				inbox[v] = nil
			}
		})
	}

	// Per-superstep observability: active-vertex and message counters plus
	// one span per superstep (real-time locally, virtual on a cluster).
	tr := job.Tracer
	activeCounter := tr.Registry().Counter("giraph.active_vertices")
	msgCounter := tr.Registry().Counter("giraph.messages")

	var peakBuffered int64
	var supersteps int
	// runStep executes superstep s and reports whether the run is done. A
	// Recovery can re-invoke it with the same s after rolling engine state
	// back to a checkpoint; everything the step touches is either rebuilt
	// per chunk (staging, bufferedBytes, nextInbox) or part of the snapshot
	// (values, halted, counter, inbox), so replays are exact.
	runStep := func(s int) (bool, error) {
		if job.MaxSupersteps > 0 && s >= job.MaxSupersteps {
			return true, nil
		}
		rt.superstep = s

		activeList := make([]uint32, 0, n)
		for v := uint32(0); v < n; v++ {
			if len(inbox[v]) > 0 || !rt.halted.Get(v) {
				activeList = append(activeList, v)
			}
		}
		if len(activeList) == 0 {
			return true, nil
		}
		activeCounter.Add(int64(len(activeList)))
		var stepSpan *trace.Span
		var stepVirtualStart float64
		if job.Cluster != nil {
			stepVirtualStart = job.Cluster.VirtualSeconds()
		} else {
			stepSpan = tr.Begin("giraph.superstep", "superstep").Arg("superstep", float64(s))
		}
		var stepMsgs, stepPeakBuffered int64
		rt.nextInbox = make([][]any, n)

		chunkSize := (len(activeList) + split - 1) / split
		for chunkStart := 0; chunkStart < len(activeList); chunkStart += chunkSize {
			chunkEnd := chunkStart + chunkSize
			if chunkEnd > len(activeList) {
				chunkEnd = len(activeList)
			}
			chunk := activeList[chunkStart:chunkEnd]
			if job.Combiner != nil {
				rt.stagingMap = make([]map[uint32]any, nodes*rt.workers)
				for i := range rt.stagingMap {
					rt.stagingMap[i] = make(map[uint32]any)
				}
			} else {
				rt.staging = make([][]envelope, nodes*rt.workers)
			}
			rt.bufferedBytes.Store(0)

			if job.Cluster != nil {
				err := job.Cluster.RunPhase(func(node int) error {
					// This node computes its owned slice of the chunk
					// (activeList is ascending, so the slice is a
					// contiguous subrange).
					lo, hi := rt.part.Range(node)
					a := sort.Search(len(chunk), func(i int) bool { return chunk[i] >= lo })
					b := sort.Search(len(chunk), func(i int) bool { return chunk[i] >= hi })
					computeSlice(chunk[a:b], node*rt.workers)
					if remote := rt.remoteBytes[node].Load(); remote > 0 {
						// Netty flushes per-destination buffers: the wire
						// sees batched transfers, not one round-trip per
						// vertex message.
						job.Cluster.Account(node, remote, int64(nodes-1))
						rt.remoteBytes[node].Store(0)
					}
					// Superstep barrier (zookeeper-style coordination).
					job.Cluster.Account(node, 16, 1)
					return nil
				})
				if err != nil {
					return false, err
				}
				// Buffered messages sit on-heap until the chunk flushes.
				if buffered := rt.bufferedBytes.Load(); buffered > 0 {
					perNode := buffered / int64(nodes)
					for node := 0; node < nodes; node++ {
						job.Cluster.RecordMemory(node, rt.baselineMem[node]+perNode)
					}
				}
			} else {
				computeSlice(chunk, 0)
			}
			buffered := rt.bufferedBytes.Load()
			if buffered > peakBuffered {
				peakBuffered = buffered
			}
			if buffered > stepPeakBuffered {
				stepPeakBuffered = buffered
			}
			// Flush: build the next inbox from the staged envelopes.
			if job.Combiner != nil {
				// Each slot map is flushed in sorted destination order:
				// checkpoints encode the inbox byte-for-byte, so the
				// flush order must not depend on map iteration order.
				for _, m := range rt.stagingMap {
					dests := make([]uint32, 0, len(m))
					for to := range m {
						dests = append(dests, to)
					}
					sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
					for _, to := range dests {
						rt.nextInbox[to] = append(rt.nextInbox[to], m[to])
						stepMsgs++
					}
				}
				rt.stagingMap = nil
			} else {
				for _, worker := range rt.staging {
					for _, env := range worker {
						rt.nextInbox[env.to] = append(rt.nextInbox[env.to], env.msg)
					}
					stepMsgs += int64(len(worker))
				}
				rt.staging = nil
			}
		}
		msgCounter.Add(stepMsgs)
		if stepSpan != nil {
			stepSpan.Arg("active", float64(len(activeList))).
				Arg("messages", float64(stepMsgs)).
				Arg("buffered_bytes", float64(stepPeakBuffered)).End()
		} else if job.Cluster != nil {
			job.Tracer.RecordVirtual(trace.PidEngine, "giraph.superstep",
				fmt.Sprintf("superstep %d", s),
				stepVirtualStart, job.Cluster.VirtualSeconds()-stepVirtualStart,
				map[string]float64{
					"active":         float64(len(activeList)),
					"messages":       float64(stepMsgs),
					"buffered_bytes": float64(stepPeakBuffered),
				})
		}
		inbox = rt.nextInbox
		supersteps = s + 1
		return false, nil
	}

	if job.Cluster != nil {
		// The superstep loop runs under the cluster's recovery driver:
		// every Ckpt.Interval supersteps the vertex values, active set,
		// aggregator counter, and pending messages are checkpointed
		// (Pregel's scheme, which Giraph inherits), and an injected crash
		// rolls back and replays from the last snapshot.
		rec := job.Cluster.Recovery(
			func() ([]byte, error) { return snapshotState(job, rt, values, inbox) },
			func(data []byte) error {
				restored, err := restoreState(job, rt, values, data)
				if err != nil {
					return err
				}
				inbox = restored
				return nil
			})
		if rec.Store() != nil && (job.EncodeValue == nil || job.DecodeValue == nil) {
			return nil, fmt.Errorf("giraph: checkpointing (interval %d) needs EncodeValue/DecodeValue on the job",
				job.Cluster.Config().Ckpt.Interval)
		}
		if err := rec.Run(runStep); err != nil {
			return nil, err
		}
	} else {
		for {
			done, err := runStep(supersteps)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	}
	return &Result{Values: values, Supersteps: supersteps, Counter: rt.counter.Load(), PeakBufferedBytes: peakBuffered}, nil
}
