// Package graphlab reimplements GraphLab's programming model (paper §3):
// synchronous Gather-Apply-Scatter vertex programs over a 1-D vertex
// partitioning with replication of high-degree vertices, communicating
// through TCP sockets. Algorithms are written as vertex programs against
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

// runLocal executes the program on the host: each round gathers over
// in-edges of active vertices in parallel, applies, and schedules
// (GraphLab's synchronous engine uses every core). The sweep runs on the
// call's backend pool with persistent scratch — staged values and a
// byte-granular changed flag are written at distinct vertex indices by
// concurrent workers, and the next-round active set is claimed with
// atomic bit sets — so steady-state rounds do not allocate.
func runLocal[V, G any](pool *backend.Pool, g, in *graph.CSR, outDeg []int64, spec Spec[V, G]) runResult[V] {
	n := g.NumVertices
	vals := make([]V, n)
	for i := range vals {
		vals[i] = spec.Init(uint32(i))
	}
	active := bitvec.New(n)
	if spec.InitialActive == nil {
		for v := uint32(0); v < n; v++ {
			active.Set(v)
		}
	} else {
		for _, v := range spec.InitialActive {
			active.Set(v)
		}
	}
	anyActive := active.Count() > 0

	staged := make([]V, n)
	changed := make([]byte, n)
	nextActive := bitvec.New(n)
	// The sweep's per-vertex cost is the in-degree gather plus the
	// out-degree scatter — skewed on power-law graphs, and further warped
	// by the active set — so chunks are claimed dynamically. The body is
	// built once; active/nextActive swap by variable, which the closure
	// observes.
	sweep := backend.NewSweep(pool, int(n), 0, func(_, lo, hi int) {
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

	rounds := 0
	// changedHist tracks how many vertices each sweep actually moved — the
	// convergence-shape distribution behind the sweep spans.
	changedHist := spec.Tracer.Registry().Hist("graphlab.sweep.changed")
	for anyActive {
		if spec.MaxIterations > 0 && rounds >= spec.MaxIterations {
			break
		}
		rounds++
		sweepSpan := spec.Tracer.Begin("graphlab.sweep", "sweep").Arg("round", float64(rounds))
		nextActive.Reset()
		sweep.Run()
		// Serial apply scan: commit staged values, count and clear flags.
		changedCount := 0
		for v, ch := range changed {
			if ch != 0 {
				vals[v] = staged[v]
				changed[v] = 0
				changedCount++
			}
		}
		sweepSpan.Arg("changed", float64(changedCount)).End()
		changedHist.Record(0, int64(changedCount))
		active, nextActive = nextActive, active
		anyActive = active.Count() > 0
	}
	return runResult[V]{vals: vals, rounds: rounds}
}

// runCluster executes the program on a simulated cluster: per round each
// node gathers and applies its owned active vertices, then pushes changed
// boundary values to consumers (GraphLab's ghost synchronization, with
// local reduction so each value crosses each node pair at most once —
// the "limited form of compression" of §6.1.1). GraphLab ships no delta
// coding: every ghost update costs 4 id bytes + ValueBytes.
func runCluster[V, G any](g *graph.CSR, in *graph.CSR, spec Spec[V, G], c *cluster.Cluster, replicated *graph.ReplicatedPartition) (runResult[V], error) {
	part := replicated.Base
	n := g.NumVertices
	outDeg := g.OutDegrees()
	vals := make([]V, n)
	for i := range vals {
		vals[i] = spec.Init(uint32(i))
	}
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

	active := make([]bool, n)
	anyActive := false
	if spec.InitialActive == nil {
		for i := range active {
			active[i] = true
		}
		anyActive = n > 0
	} else {
		for _, v := range spec.InitialActive {
			active[v] = true
			anyActive = true
		}
	}

	// Round-persistent scratch, cleared (not reallocated) per round.
	changed := make([]bool, n)
	staged := make([]V, n)
	nextActive := make([]bool, n)
	rounds := 0
	for anyActive {
		if spec.MaxIterations > 0 && rounds >= spec.MaxIterations {
			break
		}
		rounds++
		for i := range nextActive {
			nextActive[i] = false
		}
		for i := range changed {
			changed[i] = false
		}
		// Synchronous engine: stage values so every node's gathers observe
		// the previous round.
		copy(staged, vals)
		nextAny := false
		roundStart := c.VirtualSeconds()
		err := c.RunPhase(func(node int) error {
			lo, hi := part.Range(node)
			for v := lo; v < hi; v++ {
				if !active[v] {
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
					staged[v] = nv
					changed[v] = true
				}
				switch act {
				case ActivateSelf:
					nextActive[v] = true
					nextAny = true
				case ActivateNeighbors:
					for _, t := range g.Neighbors(v) {
						nextActive[t] = true
					}
					if g.Degree(v) > 0 {
						nextAny = true
					}
				}
			}
			// Ghost sync: changed boundary values flow to consumers.
			for d := 0; d < c.Nodes(); d++ {
				ids := sendIDs[node][d]
				if len(ids) == 0 {
					continue
				}
				var count int64
				for _, v := range ids {
					if changed[v] {
						count++
					}
				}
				if count > 0 {
					// Values travel as (id, value) pairs; replicated
					// vertices instead ship a partial aggregate once.
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
		var changedCount float64
		for _, ch := range changed {
			if ch {
				changedCount++
			}
		}
		spec.Tracer.RecordVirtual(trace.PidEngine, "graphlab.sweep",
			fmt.Sprintf("sweep %d", rounds), roundStart, c.VirtualSeconds()-roundStart,
			map[string]float64{"changed": changedCount})
		copy(vals, staged)
		active, nextActive = nextActive, active
		anyActive = nextAny
	}
	return runResult[V]{vals: vals, rounds: rounds}, nil
}

// newCluster builds the engine's cluster with GraphLab's socket layer.
func newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Comm.Bandwidth == 0 {
		cfg.Comm = cluster.IPoIBSockets()
	}
	return cluster.New(cfg)
}
