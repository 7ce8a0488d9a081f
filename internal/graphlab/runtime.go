// Package graphlab reimplements GraphLab's programming model (paper §3):
// synchronous Gather-Apply-Scatter vertex programs over a 1-D vertex
// partitioning, communicating through TCP sockets. Algorithms are written as vertex programs against
// the generic runtime in this file; the per-edge abstraction cost (closure
// calls, generic accumulators) is the realistic price of the model that
// the paper measures at 3–9× native.
package graphlab

import (
	"fmt"

	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/cluster"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Activation says which vertices a program wants scheduled next round.
type Activation int

const (
	// ActivateNone schedules nothing; the vertex goes quiet.
	ActivateNone Activation = iota
	// ActivateNeighbors schedules the vertex's out-neighbours.
	ActivateNeighbors
	// ActivateSelf keeps the vertex itself scheduled.
	ActivateSelf
)

// Spec is a synchronous GAS vertex program. V is the vertex value type and
// G the gather accumulator.
type Spec[V, G any] struct {
	// Init produces a vertex's initial value.
	Init func(id uint32) V
	// GatherZero is the accumulator identity.
	GatherZero func() G
	// Gather folds one in-edge (src → this vertex) into the accumulator.
	// srcOutDeg is src's out-degree (GraphLab exposes adjacent edge
	// metadata to the gather).
	Gather func(acc G, src uint32, srcVal V, srcOutDeg int64, w float32) G
	// Apply computes the vertex's new value from the gathered accumulator
	// (hasGather is false for vertices with no in-edges) and reports
	// whether the value changed plus what to activate.
	Apply func(id uint32, old V, acc G, hasGather bool) (V, bool, Activation)
	// MaxIterations bounds the rounds; 0 means run to quiescence.
	MaxIterations int
	// InitialActive lists the initially scheduled vertices; nil means all.
	InitialActive []uint32
	// ValueBytes models the wire size of V for ghost synchronization.
	ValueBytes int
	// Tracer, when non-nil, receives one span per sweep round with the
	// number of vertices whose Apply changed a value.
	Tracer *trace.Tracer
}

// runResult carries the final vertex values and round count.
type runResult[V any] struct {
	vals   []V
	rounds int
}

// gas is the state of one synchronous GAS run, shared by both drivers:
// the committed values, the values staged this round with a byte-granular
// changed flag per vertex, and the active sets of this round and the next.
// Every gather in a round reads the committed values; commit writes back
// only the vertices that changed.
type gas[V, G any] struct {
	spec               Spec[V, G]
	vals, staged       []V
	changed            []byte
	active, nextActive *bitvec.Vector
	rounds             int
	// sweep runs the per-vertex gather, apply and activate over a vertex
	// range: the pool driver runs it whole, the node driver one owned range
	// at a time. Concurrent chunks write staged values and changed flags
	// at distinct vertex indices and claim next-round vertices with atomic
	// bit sets, so steady-state rounds do not allocate.
	sweep *backend.Sweep
}

// newGAS builds a run's state and its sweep. pool may be nil when only
// RunChunk drives the sweep.
func newGAS[V, G any](pool *par.Pool, g, in *graph.CSR, outDeg []int64, spec Spec[V, G]) *gas[V, G] {
	n := g.NumVertices
	e := &gas[V, G]{
		spec:       spec,
		vals:       make([]V, n),
		staged:     make([]V, n),
		changed:    make([]byte, n),
		active:     bitvec.New(n),
		nextActive: bitvec.New(n),
	}
	for i := range e.vals {
		e.vals[i] = spec.Init(uint32(i))
	}
	if spec.InitialActive == nil {
		for v := uint32(0); v < n; v++ {
			e.active.Set(v)
		}
	} else {
		for _, v := range spec.InitialActive {
			e.active.Set(v)
		}
	}
	// The sweep's per-vertex cost is the in-degree gather plus the
	// out-degree scatter — skewed on power-law graphs, and further warped
	// by the active set — so chunks are claimed dynamically. The body is
	// built once; commit swaps the active sets, which each chunk reads
	// afresh.
	e.sweep = backend.NewSweep(pool, int(n), 0, func(_, lo, hi int) {
		vals, staged, changed := e.vals, e.staged, e.changed
		active, nextActive := e.active, e.nextActive
		for v := uint32(lo); v < uint32(hi); v++ {
			if !active.Get(v) {
				continue
			}
			acc := spec.GatherZero()
			row, wts := in.Neighbors(v), in.EdgeWeights(v)
			for i, src := range row {
				var w float32 = 1
				if wts != nil {
					w = wts[i]
				}
				acc = spec.Gather(acc, src, vals[src], outDeg[src], w)
			}
			nv, didChange, act := spec.Apply(v, vals[v], acc, len(row) > 0)
			if didChange {
				// Defer writes so every gather this round sees old values
				// (synchronous engine semantics).
				staged[v] = nv
				changed[v] = 1
			}
			switch act {
			case ActivateSelf:
				nextActive.SetAtomic(v)
			case ActivateNeighbors:
				for _, t := range g.Neighbors(v) {
					nextActive.SetAtomic(t)
				}
			}
		}
	})
	return e
}

// next reports whether another round runs — some vertex is active and
// the round bound, if any, is not reached — and counts it.
func (e *gas[V, G]) next() bool {
	if e.active.Count() == 0 || (e.spec.MaxIterations > 0 && e.rounds >= e.spec.MaxIterations) {
		return false
	}
	e.rounds++
	return true
}

// commit ends a round after its sweep: a serial scan writes the staged
// values back, clearing the changed flags, and the next round's active set
// becomes current. It returns how many vertices changed.
func (e *gas[V, G]) commit() int {
	count := 0
	for v, ch := range e.changed {
		if ch != 0 {
			e.vals[v] = e.staged[v]
			e.changed[v] = 0
			count++
		}
	}
	e.active, e.nextActive = e.nextActive, e.active
	e.nextActive.Reset()
	return count
}

// runLocal is the pool driver: each round sweeps every active vertex on
// the call's pool (GraphLab's synchronous engine uses every core).
func runLocal[V, G any](pool *par.Pool, g, in *graph.CSR, outDeg []int64, spec Spec[V, G]) runResult[V] {
	e := newGAS(pool, g, in, outDeg, spec)
	// changedHist tracks how many vertices each sweep actually moved — the
	// convergence-shape distribution behind the sweep spans.
	changedHist := spec.Tracer.Registry().Hist("graphlab.sweep.changed")
	for e.next() {
		sweepSpan := spec.Tracer.Begin("graphlab.sweep", "sweep").Arg("round", float64(e.rounds))
		e.sweep.Run()
		changed := e.commit()
		sweepSpan.Arg("changed", float64(changed)).End()
		changedHist.Record(0, int64(changed))
	}
	return runResult[V]{vals: e.vals, rounds: e.rounds}
}

// runCluster is the node driver, on a simulated cluster: per round each
// node sweeps its owned range of part, then pushes changed boundary values
// to consumers (GraphLab's ghost synchronization). Each changed value is
// charged once per consumer node, however many of that node's gathers read
// it — the local reduction that is the "limited form of compression" of
// §6.1.1. GraphLab ships no delta coding: every ghost update costs 4 id
// bytes + ValueBytes.
func runCluster[V, G any](g, in *graph.CSR, outDeg []int64, spec Spec[V, G], c *cluster.Cluster, part *graph.Partition1D) (runResult[V], error) {
	// sendIDs[s][d]: the vertices owned by s whose values d's gathers read.
	sendIDs := part.SendIDs(g)
	for node := 0; node < c.Nodes(); node++ {
		lo, hi := part.Range(node)
		edges := in.Offsets[hi] - in.Offsets[lo]
		var ghost int64
		for s := 0; s < c.Nodes(); s++ {
			ghost += int64(len(sendIDs[s][node])) * int64(4+spec.ValueBytes)
		}
		c.SetBaselineMemory(node, edges*8+int64(hi-lo)*int64(spec.ValueBytes+16)+ghost)
	}

	e := newGAS(nil, g, in, outDeg, spec)
	for e.next() {
		roundStart := c.VirtualSeconds()
		err := c.RunPhase(func(node int) error {
			lo, hi := part.Range(node)
			e.sweep.RunChunk(0, int(lo), int(hi))
			// Ghost sync: changed boundary values flow to consumers as
			// (id, value) pairs.
			for _, ids := range sendIDs[node] {
				var count int64
				for _, v := range ids {
					if e.changed[v] != 0 {
						count++
					}
				}
				if count > 0 {
					c.Account(node, count*int64(4+spec.ValueBytes), 1)
				}
			}
			// Scheduling/termination control traffic.
			c.Account(node, 4, 1)
			return nil
		})
		if err != nil {
			return runResult[V]{}, err
		}
		changed := e.commit()
		spec.Tracer.RecordVirtual(trace.PidEngine, "graphlab.sweep",
			fmt.Sprintf("sweep %d", e.rounds), roundStart, c.VirtualSeconds()-roundStart,
			map[string]float64{"changed": float64(changed)})
	}
	return runResult[V]{vals: e.vals, rounds: e.rounds}, nil
}

// newCluster builds the engine's cluster with GraphLab's socket layer.
func newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Comm.Bandwidth == 0 {
		cfg.Comm = cluster.IPoIBSockets()
	}
	return cluster.New(cfg)
}
