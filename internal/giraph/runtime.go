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
	"slices"
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
// A worker reuses one Context for every vertex it computes.
type Context struct {
	id   uint32
	slot *slot
	out  *outbox
	rt   *runtime
	// firstWord and lastWord are the halted-bitset words at the two ends of
	// the worker's vertex range, the only ones another worker can share.
	firstWord, lastWord uint32
	value               any
}

// ID reports the vertex id.
func (c *Context) ID() uint32 { return c.id }

// Superstep reports the current superstep number (0-based).
func (c *Context) Superstep() int { return c.rt.superstep }

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
func (c *Context) VoteToHalt() { c.rt.halted.Set(c.id, c.edge(c.id)) }

// edge reports whether vertex v's halted word is at an end of the worker's
// range.
func (c *Context) edge(v uint32) bool {
	w := v >> 6
	return w == c.firstWord || w == c.lastWord
}

// AddToCounter accumulates into a named global aggregator (Giraph
// aggregators, used by triangle counting for the global sum).
func (c *Context) AddToCounter(delta int64) { c.slot.counter += delta }

// Computation is the user's Compute method: invoked once per active vertex
// per superstep with the messages delivered to it. The runtime reclaims
// the messages slice when the call returns.
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
	// counter is the aggregator total committed at the last superstep
	// barrier; the superstep in flight adds to the slots' partials.
	counter int64
	halted  *bvec

	// slots is per (node, worker): Compute on node n / worker w writes
	// only slots[n*workers+w], so sends and tallies never share state.
	slots   []slot
	workers int
	// outs[i] holds slot i's envelope blocks.
	outs []outbox
	// staged holds the superstep's buffered messages: each finished
	// phase's sends, slot by slot, as sub-slices of the slots' blocks, so
	// it lists them in (phase, slot, send) order. None is delivered before
	// the superstep's last phase ends.
	staged [][]envelope
	// inbox holds the messages delivered for the superstep in flight.
	inbox       inbox
	part        *graph.Partition1D
	baselineMem []int64
}

// slot is one worker's frame for a superstep, padded to its own cache
// line. Giraph keeps aggregators as per-worker partials that the master
// reduces at the barrier; the modeled byte tallies are kept the same way
// and folded where the superstep loop reads them.
type slot struct {
	// sends is the block the worker writes its sends into (its outbox's
	// current block); with a Combiner, combined holds its message per
	// destination until the phase ends.
	sends    []envelope
	combined map[uint32]any
	// buffered is the modeled heap of this phase's buffered messages,
	// remote the modeled wire bytes to other nodes not yet accounted, and
	// counter the superstep's aggregator partial.
	buffered, remote, counter int64
	_                         [8]byte
}

// bvec is the halted bitset. A worker computes an ascending vertex range
// no other worker's overlaps, so only the words at the range's two ends can
// hold another worker's bits: Set and Clear take a CAS on such a shared
// word and a plain store on any other.
type bvec struct{ words []uint64 }

func newBvec(n uint32) *bvec { return &bvec{words: make([]uint64, (uint64(n)+63)/64)} }
func (b *bvec) Get(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(1<<(i&63)) != 0
}
func (b *bvec) Set(i uint32, shared bool) {
	w, bit := &b.words[i>>6], uint64(1)<<(i&63)
	if !shared {
		*w |= bit
		return
	}
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}
func (b *bvec) Clear(i uint32, shared bool) {
	w, bit := &b.words[i>>6], uint64(1)<<(i&63)
	if !shared {
		*w &^= bit
		return
	}
	for {
		old := atomic.LoadUint64(w)
		if old&bit == 0 || atomic.CompareAndSwapUint64(w, old, old&^bit) {
			return
		}
	}
}

// minBlock and maxBlock bound an envelope block's length: a slot's first
// block holds minBlock envelopes and each later one as many as all before
// it together, up to maxBlock (96 KiB).
const minBlock, maxBlock = 16, 4096

// outbox is one slot's envelope blocks, kept beside the slot rather than
// in it (a slot is one cache line), and touched only when a block fills and
// at the phase and superstep barriers. Sends are written front to back into
// blocks[cur], whose live header is the slot's sends, and are never copied:
// endPhase stages each phase's part of a block by sub-slice, and the next
// superstep's start rewinds the blocks for reuse, so a run allocates a
// slot's blocks once, for its largest superstep.
type outbox struct {
	blocks [][]envelope
	cur    int
	// markBlock and mark locate the first send not yet staged.
	markBlock, mark int
	// size is the blocks' total capacity.
	size int
}

// put appends env to the slot's current block, moving to the next block
// when it is full.
func (o *outbox) put(sl *slot, env envelope) {
	if len(sl.sends) == cap(sl.sends) {
		sl.sends = o.next(sl.sends)
	}
	sl.sends = append(sl.sends, env)
}

// next files full, the block that just filled, and returns the next one:
// a rewound block if the slot has one, else a new one.
func (o *outbox) next(full []envelope) []envelope {
	if len(o.blocks) > 0 {
		o.blocks[o.cur] = full
		o.cur++
	}
	if o.cur == len(o.blocks) {
		size := min(max(o.size, minBlock), maxBlock)
		o.size += size
		o.blocks = append(o.blocks, make([]envelope, 0, size))
	}
	return o.blocks[o.cur]
}

// stage appends the sends written since the last stage — up to the end of
// cur, the slot's live block — to staged, one sub-slice per block they
// span.
func (o *outbox) stage(staged [][]envelope, cur []envelope) [][]envelope {
	if len(o.blocks) == 0 {
		return staged
	}
	o.blocks[o.cur] = cur
	for b := o.markBlock; b <= o.cur; b++ {
		if part := o.blocks[b][o.mark:]; len(part) > 0 {
			staged = append(staged, part)
		}
		o.mark = 0
	}
	o.markBlock, o.mark = o.cur, len(cur)
	return staged
}

// rewind empties every block written since the last rewind (cur is the
// live one), clearing the envelopes so no delivered message stays
// reachable through them, and returns the first block to write into.
func (o *outbox) rewind(cur []envelope) []envelope {
	if len(o.blocks) == 0 {
		return nil
	}
	o.blocks[o.cur] = cur
	for b := range o.blocks[:o.cur+1] {
		clear(o.blocks[b])
		o.blocks[b] = o.blocks[b][:0]
	}
	o.cur, o.markBlock, o.mark = 0, 0, 0
	return o.blocks[0]
}

// inbox holds the messages delivered for a superstep, laid out flat:
// vertex v's are msgs[offs[v]:offs[v+1]]. A run keeps one inbox that
// deliver refills in place, so its arrays are allocated once, at the
// largest superstep.
type inbox struct {
	offs []int // n+2 long: deliver counts v's messages in offs[v+2]
	msgs []any
}

func newInbox(n int) inbox { return inbox{offs: make([]int, n+2)} }

// at returns vertex v's messages.
func (in *inbox) at(v uint32) []any {
	lo, hi := in.offs[v], in.offs[v+1]
	return in.msgs[lo:hi:hi]
}

func (rt *runtime) send(ctx *Context, to uint32, msg any) {
	sl := ctx.slot
	if rt.job.Combiner != nil {
		if old, ok := sl.combined[to]; ok {
			// Combined in place: no additional buffer or wire cost.
			sl.combined[to] = rt.job.Combiner(old, msg)
			return
		}
		sl.combined[to] = msg
	} else {
		ctx.out.put(sl, envelope{to: to, msg: msg})
	}
	var payload int64
	if rt.job.MessageBytes != nil {
		payload = int64(rt.job.MessageBytes(msg))
	}
	sl.buffered += javaObjectOverhead + payload
	if rt.part != nil && rt.part.Owner(ctx.id) != rt.part.Owner(to) {
		sl.remote += messageEnvelopeBytes + 4 + payload
	}
}

// beginSuperstep empties every slot and rewinds its blocks, which the last
// delivery has emptied into the inbox: a replay after a rollback starts
// from the checkpoint alone, not from a failed attempt's sends or partials.
func (rt *runtime) beginSuperstep() {
	for i := range rt.slots {
		sl := &rt.slots[i]
		sl.sends = rt.outs[i].rewind(sl.sends)
		clear(sl.combined)
		sl.buffered, sl.remote, sl.counter = 0, 0, 0
	}
	clear(rt.staged)
	rt.staged = rt.staged[:0]
}

// takeRemote folds and zeroes node's modeled wire bytes.
func (rt *runtime) takeRemote(node int) int64 {
	var sum int64
	for i := node * rt.workers; i < (node+1)*rt.workers; i++ {
		sum += rt.slots[i].remote
		rt.slots[i].remote = 0
	}
	return sum
}

// endPhase flushes a phase: it stages every slot's sends and returns the
// modeled buffer they held, folded over the slots and zeroed. With a
// Combiner a slot's messages are written to its blocks in ascending
// destination order: checkpoints encode the inbox byte for byte, so the
// order must not depend on map iteration.
func (rt *runtime) endPhase() (buffered int64) {
	var dests []uint32
	for i := range rt.slots {
		sl, out := &rt.slots[i], &rt.outs[i]
		if rt.job.Combiner != nil {
			dests = dests[:0]
			for to := range sl.combined {
				dests = append(dests, to)
			}
			slices.Sort(dests)
			for _, to := range dests {
				out.put(sl, envelope{to: to, msg: sl.combined[to]})
			}
			clear(sl.combined)
		}
		rt.staged = out.stage(rt.staged, sl.sends)
		buffered += sl.buffered
		sl.buffered = 0
	}
	return buffered
}

// deliver refills the inbox once, after the superstep's last phase: one
// counting pass sizes every destination, and the staged sends fill the
// flat array in (phase, slot, send) order, each destination's cursor
// ending where the next one's messages start. The aggregator partials fold
// into the counter at the same barrier.
func (rt *runtime) deliver() (msgs int64) {
	offs := rt.inbox.offs
	clear(offs)
	for _, sends := range rt.staged {
		for _, env := range sends {
			offs[env.to+2]++
		}
		msgs += int64(len(sends))
	}
	for v := 2; v < len(offs); v++ {
		offs[v] += offs[v-1]
	}
	if int64(cap(rt.inbox.msgs)) < msgs {
		rt.inbox.msgs = make([]any, msgs)
	}
	flat := rt.inbox.msgs[:msgs]
	for _, sends := range rt.staged {
		for _, env := range sends {
			flat[offs[env.to+1]] = env.msg
			offs[env.to+1]++
		}
	}
	rt.inbox.msgs = flat
	clear(rt.staged)
	rt.staged = rt.staged[:0]
	for i := range rt.slots {
		rt.counter += rt.slots[i].counter
	}
	return msgs
}

// runLowered drives a Lowering of the job's vertex program through the
// same superstep loop the stock runtime uses: identical termination
// conditions (MaxSupersteps bound, quiescence when a message-free superstep
// leaves every vertex halted), identical per-superstep spans and counters.
// The result carries no Values: the caller reads the lowering's own typed
// vector.
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
	rt := &runtime{g: g, job: job, halted: newBvec(n), workers: workers, inbox: newInbox(int(n))}
	values := make([]any, n)
	for i := range values {
		values[i] = job.Init(uint32(i))
	}
	nodes := 1
	if job.Cluster != nil {
		nodes = job.Cluster.Nodes()
		part, err := graph.NewPartition1D(g, nodes)
		if err != nil {
			return nil, err
		}
		rt.part = part
		rt.baselineMem = make([]int64, nodes)
		for node := 0; node < nodes; node++ {
			lo, hi := part.Range(node)
			edges := g.Offsets[hi] - g.Offsets[lo]
			// Java-ish resident cost: boxed vertex objects + edge store.
			rt.baselineMem[node] = edges*8 + int64(hi-lo)*64
			job.Cluster.SetBaselineMemory(node, rt.baselineMem[node])
		}
	}

	rt.slots = make([]slot, nodes*rt.workers)
	rt.outs = make([]outbox, len(rt.slots))
	if job.Combiner != nil {
		for i := range rt.slots {
			rt.slots[i].combined = make(map[uint32]any)
		}
	}

	// computeSlice runs Compute over chunk with Giraph's 4 workers, one
	// static range each on the job's pool, staging sends into slots
	// base..base+workers-1.
	pool := par.NewPool(rt.workers)
	defer pool.Close()
	computeSlice := func(chunk []uint32, base int) {
		pool.RunStatic(par.RunnerFunc(func(worker, lo, hi int) {
			if lo == hi {
				return
			}
			ctx := &Context{slot: &rt.slots[base+worker], out: &rt.outs[base+worker], rt: rt,
				firstWord: chunk[lo] >> 6, lastWord: chunk[hi-1] >> 6}
			for i := lo; i < hi; i++ {
				v := chunk[i]
				msgs := rt.inbox.at(v)
				if len(msgs) > 0 {
					rt.halted.Clear(v, ctx.edge(v))
				}
				ctx.id, ctx.value = v, values[v]
				job.Compute(ctx, msgs)
				values[v] = ctx.value
				clear(msgs)
			}
		}), par.EvenSplits(len(chunk), rt.workers))
	}

	// Per-superstep observability: active-vertex and message counters, the
	// message and buffered-byte histograms runLowered records too, and one
	// span per superstep (real-time locally, virtual on a cluster).
	tr := job.Tracer
	activeCounter := tr.Registry().Counter("giraph.active_vertices")
	msgCounter := tr.Registry().Counter("giraph.messages")
	msgHist := tr.Registry().Hist("giraph.superstep.messages")
	bufHist := tr.Registry().Hist("giraph.superstep.buffered_bytes")

	var peakBuffered int64
	var supersteps int
	activeList := make([]uint32, 0, n)
	// runStep executes superstep s and reports whether the run is done. A
	// Recovery can re-invoke it with the same s after rolling engine state
	// back to a checkpoint; everything the step touches is either emptied
	// when it starts (the slots' blocks and tallies, the active list) or part
	// of the snapshot (values, halted, counter, inbox), so replays are exact.
	runStep := func(s int) (bool, error) {
		if job.MaxSupersteps > 0 && s >= job.MaxSupersteps {
			return true, nil
		}
		rt.superstep = s

		activeList = activeList[:0]
		for v := uint32(0); v < n; v++ {
			if len(rt.inbox.at(v)) > 0 || !rt.halted.Get(v) {
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
		var stepPeakBuffered int64
		rt.beginSuperstep()

		chunkSize := (len(activeList) + split - 1) / split
		for chunkStart := 0; chunkStart < len(activeList); chunkStart += chunkSize {
			chunkEnd := chunkStart + chunkSize
			if chunkEnd > len(activeList) {
				chunkEnd = len(activeList)
			}
			chunk := activeList[chunkStart:chunkEnd]

			if job.Cluster != nil {
				err := job.Cluster.RunPhase(func(node int) error {
					// This node computes its owned slice of the chunk
					// (activeList is ascending, so the slice is a
					// contiguous subrange).
					lo, hi := rt.part.Range(node)
					a := sort.Search(len(chunk), func(i int) bool { return chunk[i] >= lo })
					b := sort.Search(len(chunk), func(i int) bool { return chunk[i] >= hi })
					computeSlice(chunk[a:b], node*rt.workers)
					if remote := rt.takeRemote(node); remote > 0 {
						// Netty flushes per-destination buffers: the wire
						// sees batched transfers, not one round-trip per
						// vertex message.
						job.Cluster.Account(node, remote, int64(nodes-1))
					}
					// Superstep barrier (zookeeper-style coordination).
					job.Cluster.Account(node, 16, 1)
					return nil
				})
				if err != nil {
					return false, err
				}
			} else {
				computeSlice(chunk, 0)
			}
			// The phase flushes: its modeled buffer empties, but no message
			// reaches a vertex before the superstep's last phase ends.
			buffered := rt.endPhase()
			if job.Cluster != nil && buffered > 0 {
				// Buffered messages sit on-heap until the phase flushes.
				perNode := buffered / int64(nodes)
				for node := 0; node < nodes; node++ {
					job.Cluster.RecordMemory(node, rt.baselineMem[node]+perNode)
				}
			}
			if buffered > peakBuffered {
				peakBuffered = buffered
			}
			if buffered > stepPeakBuffered {
				stepPeakBuffered = buffered
			}
		}
		stepMsgs := rt.deliver()
		msgCounter.Add(stepMsgs)
		msgHist.Record(0, stepMsgs)
		bufHist.Record(0, stepPeakBuffered)
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
		supersteps = s + 1
		return false, nil
	}

	if job.Cluster != nil {
		// The superstep loop runs under the cluster's recovery driver:
		// every Ckpt.Interval supersteps the vertex values, active set,
		// aggregator counter, and pending messages are checkpointed
		// (Pregel's scheme, which Giraph inherits), and an injected crash
		// rolls back and replays from the last snapshot.
		if cfg := job.Cluster.Config().Ckpt; cfg.Enabled() && (job.EncodeValue == nil || job.DecodeValue == nil) {
			return nil, fmt.Errorf("giraph: checkpointing (interval %d) needs EncodeValue/DecodeValue on the job", cfg.Interval)
		}
		rec := job.Cluster.Recovery(
			func() ([]byte, error) { return snapshotState(job, rt, values) },
			func(data []byte) error { return restoreState(job, rt, values, data) })
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
	return &Result{Values: values, Supersteps: supersteps, Counter: rt.counter, PeakBufferedBytes: peakBuffered}, nil
}
