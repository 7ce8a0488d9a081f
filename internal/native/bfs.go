package native

import (
	"fmt"

	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/cluster"
	"graphmaze/internal/codec"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// BFS implements core.Engine following the approach of [28] cited by the
// paper: level-synchronous traversal with a bit-vector visited set and a
// top-down/bottom-up direction switch for the dense middle levels, which
// it takes on a symmetrized graph (a directed one runs top-down only).
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return e.bfsCluster(g, opt)
	}
	var dist []int32
	stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) (levels int) {
		dist, levels = bfsLocal(pool, g, opt.Source, tr)
		return levels
	})
	return &core.BFSResult{Distances: dist, Stats: stats}, nil
}

// bfsLocal is the one-node BFS: the engine is a thin wrapper over the
// package's one BFS kernel. Pull levels read parents through an in-edge
// matrix, and the graph is its own only when its construction stored
// every reverse edge; without one every level is a push, which is exact
// on any graph.
func bfsLocal(pool *par.Pool, g *graph.CSR, source uint32, tr *trace.Tracer) ([]int32, int) {
	m := backend.FromCSR(g)
	var in *backend.Matrix
	if g.Symmetrized() {
		in = m
	}
	return BFS(pool, m, in, source, "native.bfs.level", tr)
}

// BFS runs the shared backend's direction-switching bit-vector traversal
// (serial cutover, frontier grain and 3× direction heuristic of the
// historical native kernel) from source along out's edges on the caller's
// pool. in is out's in-edge matrix, which bottom-up levels read parents
// from: out itself on a symmetric graph, its transpose on a directed one,
// or nil for top-down levels only. It returns the hop distances, -1 for
// unreached vertices, and the number of levels. span names the per-level
// trace span; tr may be nil.
func BFS(pool *par.Pool, out, in *backend.Matrix, source uint32, span string, tr *trace.Tracer) ([]int32, int) {
	return BFSInto(pool, out, in, source, span, tr, make([]int32, out.NumRows))
}

// BFSInto is BFS on the caller's distance vector: dist holds out.NumRows
// elements and is overwritten whatever it held. The returned distances
// are dist.
func BFSInto(pool *par.Pool, out, in *backend.Matrix, source uint32, span string, tr *trace.Tracer, dist []int32) ([]int32, int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	return dist, backend.NewDirectedTraversal(pool, out, in, span, tr).Run(dist, source)
}

// bfsCluster is the distributed level-synchronous BFS: 1-D partition,
// per-level exchange of discovered remote candidates as (optionally
// compressed) sorted id lists — the paper's 3.2× BFS compression win
// comes from exactly this traffic. The expansion probes the bit-vector
// visited set with Tuning.Bitvector on, and the distance array (a 4-byte
// random load per probe instead of a bit) with it off; the two agree on
// every vertex, so only the probe's cost differs.
func (e *Engine) bfsCluster(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	cfg := opt.Exec.ClusterConfig()
	cfg.Overlap = e.tuning.Overlap
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	n := g.NumVertices
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[opt.Source] = 0

	visited := bitvec.New(n)
	visited.Set(opt.Source)

	// Per-node frontier of owned vertices.
	frontiers := make([][]uint32, c.Nodes())
	frontiers[part.Owner(opt.Source)] = []uint32{opt.Source}

	for node := 0; node < c.Nodes(); node++ {
		lo, hi := part.Range(node)
		edges := g.Offsets[hi] - g.Offsets[lo]
		// CSR slice + distances + visited bits for owned range.
		c.SetBaselineMemory(node, edges*4+int64(hi-lo+1)*8+int64(hi-lo)*4+int64(hi-lo)/8)
	}

	// Fault tolerance (DESIGN.md §10): a level's inter-phase state is the
	// distance array, the visited bitset, and the per-node frontiers; the
	// in-flight candidate lists ride in the cluster inbox, checkpointed by
	// the recovery driver. The level number itself is the step index, so a
	// replayed step recomputes under the same level.
	rec := c.Recovery(
		func() ([]byte, error) {
			out := codec.AppendInt32s(nil, dist)
			out = codec.AppendUint64s(out, visited.Words())
			for node := 0; node < c.Nodes(); node++ {
				out = codec.AppendUint32s(out, frontiers[node])
			}
			return out, nil
		},
		func(data []byte) error {
			d, data, err := codec.Int32s(data)
			if err != nil {
				return err
			}
			if len(d) != len(dist) {
				return fmt.Errorf("native: checkpoint has %d distances, want %d", len(d), len(dist))
			}
			words, data, err := codec.Uint64s(data)
			if err != nil {
				return err
			}
			if len(words) != len(visited.Words()) {
				return fmt.Errorf("native: checkpoint has %d visited words, want %d", len(words), len(visited.Words()))
			}
			restored := make([][]uint32, c.Nodes())
			for node := 0; node < c.Nodes(); node++ {
				if restored[node], data, err = codec.Uint32s(data); err != nil {
					return err
				}
			}
			copy(dist, d)
			copy(visited.Words(), words)
			copy(frontiers, restored)
			return nil
		})
	// Remote candidates dedup through one bitmap per destination over the
	// range it owns (the native code's send-side visited filters, [28]),
	// allocated once: nodes compute one after another, and the node that
	// set a bitmap's bits empties it before its compute returns.
	remote := make([]*bitvec.Vector, c.Nodes())
	for d := range remote {
		lo, hi := part.Range(d)
		remote[d] = bitvec.New(hi - lo)
	}
	var ids []uint32
	bitvector := e.tuning.Bitvector
	var levels int
	err = rec.Run(func(step int) (bool, error) {
		level := graph.MustI32(int64(step)) + 1
		anyActive := false
		err := c.RunPhase(func(node int) error {
			// Merge remote candidates delivered at the phase boundary.
			for _, payload := range c.Recv(node) {
				ids, err := codec.DecodeIDs(payload)
				if err != nil {
					return err
				}
				for _, v := range ids {
					if dist[v] == -1 {
						dist[v] = level - 1
						visited.Set(v)
						frontiers[node] = append(frontiers[node], v)
					}
				}
			}
			// Expand the local frontier.
			var next []uint32
			for _, v := range frontiers[node] {
				for _, t := range g.Neighbors(v) {
					if bitvector {
						if visited.Get(t) {
							continue
						}
					} else if dist[t] != -1 {
						continue
					}
					owner := part.Owner(t)
					if owner == node {
						visited.Set(t)
						dist[t] = level
						next = append(next, t)
					} else {
						remote[owner].Set(t - part.Starts[owner])
					}
				}
			}
			frontiers[node] = next
			if len(next) > 0 {
				anyActive = true
			}
			// Send in ascending destination order, each list read off its
			// bitmap pre-sorted. Every bitmap is emptied, even past a
			// failed encode, so the next compute starts on empty marks.
			var err error
			for d, marks := range remote {
				base := part.Starts[d]
				ids = ids[:0]
				marks.ForEach(func(t uint32) { ids = append(ids, base+t) })
				marks.Reset()
				if len(ids) == 0 || err != nil {
					continue
				}
				var payload []byte
				if e.tuning.Compression {
					payload, err = codec.EncodeIDsAuto(ids, n)
				} else {
					payload, err = codec.EncodeIDs(codec.Raw, ids, n)
				}
				if err == nil {
					c.Send(node, d, payload)
					anyActive = true
				}
			}
			if err != nil {
				return err
			}
			// Termination allreduce: one flag byte per node per level.
			c.Account(node, 1, 1)
			return nil
		})
		if err != nil {
			return false, err
		}
		levels = int(level)
		return !anyActive, nil
	})
	if err != nil {
		return nil, err
	}

	return &core.BFSResult{
		Distances: dist,
		Stats:     core.SimulatedStats(c, levels),
	}, nil
}
