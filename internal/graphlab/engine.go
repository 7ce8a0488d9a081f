package graphlab

import (
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/cuckoo"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Engine is the GraphLab-model engine.
type Engine struct{}

var _ core.Engine = (*Engine)(nil)

// New returns the GraphLab-model engine.
func New() *Engine { return &Engine{} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "GraphLab" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: false, ProgrammingModel: "vertex"}
}

// pageRankSpec is the paper's Algorithm 1 as a GAS program.
func pageRankSpec(opt core.PageRankOptions) Spec[float64, float64] {
	return Spec[float64, float64]{
		Init:       func(uint32) float64 { return 1 },
		GatherZero: func() float64 { return 0 },
		Gather: func(acc float64, _ uint32, srcVal float64, srcOutDeg int64, _ float32) float64 {
			if srcOutDeg == 0 {
				return acc
			}
			return acc + srcVal/float64(srcOutDeg)
		},
		Apply: func(_ uint32, _ float64, acc float64, _ bool) (float64, bool, Activation) {
			return opt.RandomJump + (1-opt.RandomJump)*acc, true, ActivateSelf
		},
		MaxIterations: opt.Iterations,
		ValueBytes:    8,
	}
}

// PageRank implements core.Engine.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	in, outDeg := g.Transpose(), g.OutDegrees()
	if opt.Exec.Cluster == nil {
		var ranks []float64
		stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
			ranks = pageRankLowered(pool, in, outDeg, opt, tr)
			return opt.Iterations
		})
		return &core.PageRankResult{Ranks: ranks, Stats: stats}, nil
	}
	spec := pageRankSpec(opt)
	spec.Tracer = opt.Exec.Tracer()
	c, err := newCluster(opt.Exec.ClusterConfig())
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	res, err := runCluster(g, in, outDeg, spec, c, part)
	if err != nil {
		return nil, err
	}
	return &core.PageRankResult{Ranks: res.vals, Stats: core.SimulatedStats(c, res.rounds)}, nil
}

// pageRankLowered is the local PageRank sweep lowered onto the shared
// backend sweep (DESIGN.md §12) as (s, a, b) = (1, r, 1−r): the GAS gather
// over in-edges is a plus-times SpMV of the contribution vector over the
// transpose, and Apply fuses into its affine epilogue. The fold order —
// zero-seeded accumulator over ascending source ids — matches the generic
// runtime's gather exactly, so the ranks are bit-identical to runLocal's,
// and the sweep spans keep their shape (every vertex stays active and
// changes every round under this spec).
func pageRankLowered(pool *par.Pool, in *graph.CSR, outDeg []int64, opt core.PageRankOptions, tr *trace.Tracer) []float64 {
	n := int(in.NumVertices)
	r := opt.RandomJump
	sweep := backend.NewPageRankSweep(pool, backend.FromCSR(in), outDeg, 1, r, 1-r, make([]float64, n)).WithTracer(tr)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1
	}
	for round := 1; round <= opt.Iterations; round++ {
		sp := tr.Begin("graphlab.sweep", "sweep").Arg("round", float64(round))
		sweep.Run(vals, vals)
		sp.Arg("changed", float64(n)).End()
	}
	return vals
}

// bfsSpec is the paper's Algorithm 2 as a GAS program.
func bfsSpec(source uint32) Spec[int32, int32] {
	const inf = int32(1) << 30
	return Spec[int32, int32]{
		Init: func(id uint32) int32 {
			if id == source {
				return 0
			}
			return inf
		},
		GatherZero: func() int32 { return inf },
		Gather: func(acc int32, _ uint32, srcVal int32, _ int64, _ float32) int32 {
			if srcVal != inf && srcVal+1 < acc {
				return srcVal + 1
			}
			return acc
		},
		Apply: func(id uint32, old int32, acc int32, hasGather bool) (int32, bool, Activation) {
			best := old
			if hasGather && acc < best {
				best = acc
			}
			if best < old {
				return best, true, ActivateNeighbors
			}
			if old == 0 {
				// The source's first round: propagate.
				return old, false, ActivateNeighbors
			}
			return old, false, ActivateNone
		},
		InitialActive: []uint32{source},
		ValueBytes:    4,
	}
}

// BFS implements core.Engine.
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	// Gather reads in-edges. A graph that stored every edge's reverse is
	// its own transpose, and a min gather does not depend on their order.
	in := g
	if !g.Symmetrized() {
		in = g.Transpose()
	}
	outDeg := g.OutDegrees()
	spec := bfsSpec(opt.Source)
	spec.Tracer = opt.Exec.Tracer()
	finish := func(res runResult[int32], stats core.RunStats) *core.BFSResult {
		dist := make([]int32, len(res.vals))
		for i, v := range res.vals {
			if v >= int32(1)<<30 {
				dist[i] = -1
			} else {
				dist[i] = v
			}
		}
		return &core.BFSResult{Distances: dist, Stats: stats}
	}
	if opt.Exec.Cluster == nil {
		var res runResult[int32]
		stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
			res = runLocal(pool, g, in, outDeg, spec)
			return res.rounds
		})
		return finish(res, stats), nil
	}
	c, err := newCluster(opt.Exec.ClusterConfig())
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	res, err := runCluster(g, in, outDeg, spec, c, part)
	if err != nil {
		return nil, err
	}
	return finish(res, core.SimulatedStats(c, res.rounds)), nil
}

// TriangleCount implements core.Engine with GraphLab's approach: per-vertex
// neighbourhood sets held in cuckoo hash tables for constant-time
// membership tests (§5.3 credits this structure for GraphLab's TC
// standing).
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return e.triangleCluster(g, opt)
	}
	var count int64
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		count = triangleLocal(pool, g)
		return 1
	})
	return &core.TriangleResult{Count: count, Stats: stats}, nil
}

// triangleGrain is the dynamic chunk size of the single-node triangle
// loop: per-vertex cost is ~deg², so chunks are small and claimed off the
// pool's cursor.
const triangleGrain = 64

// triangleLocal is the single-node count on the caller's pool. Each worker
// keeps one cuckoo set across the chunks it claims (a worker index is
// never shared by two running chunks, backend.TestSweepScratchExclusive)
// and folds a chunk's count into the total with one atomic add; integer
// addition is exact, so the count is the same at any pool size.
func triangleLocal(pool *par.Pool, g *graph.CSR) int64 {
	sets := make([]*cuckoo.Set, pool.Workers())
	var total atomic.Int64
	backend.NewSweep(pool, int(g.NumVertices), triangleGrain, func(worker, lo, hi int) {
		if sets[worker] == nil {
			sets[worker] = cuckoo.New(0)
		}
		total.Add(triangleCuckoo(g, uint32(lo), uint32(hi), sets[worker]))
	}).Run()
	return total.Load()
}

// triangleCuckoo counts triangles whose first vertex lies in [lo,hi): each
// vertex's neighbourhood is loaded into set (emptied and resized by Reset,
// so one set serves every vertex of a caller) and its neighbours' lists are
// streamed against it.
func triangleCuckoo(g *graph.CSR, lo, hi uint32, set *cuckoo.Set) int64 {
	var count int64
	for v := lo; v < hi; v++ {
		adjV := g.Neighbors(v)
		if len(adjV) == 0 {
			continue
		}
		set.Reset(len(adjV))
		for _, t := range adjV {
			set.Insert(t)
		}
		for _, u := range adjV {
			count += int64(set.IntersectCount(g.Neighbors(u)))
		}
	}
	return count
}

// triangleCluster distributes the cuckoo counting over a 1-D partition:
// adjacency lists of boundary edges ship to the consumer uncompressed
// (GraphLab does not delta-code), then intersect against local cuckoo
// sets. Overlapped in-flight blocks keep the memory footprint low
// (§6.1.1), which we reflect by accounting only per-block buffers.
func (e *Engine) triangleCluster(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	cfg := opt.Exec.ClusterConfig()
	cfg.Overlap = true // GraphLab's TC overlaps communication (paper §6.1.1)
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	var total int64
	set := cuckoo.New(0)
	err = c.RunPhase(func(node int) error {
		lo, hi := part.Range(node)
		edges := g.Offsets[hi] - g.Offsets[lo]
		c.SetBaselineMemory(node, edges*8+int64(hi-lo)*48) // CSR + cuckoo sets
		total += triangleCuckoo(g, lo, hi, set)
		// Boundary adjacency shipping: for every out-neighbour u of v owned
		// elsewhere, adj(v) travels to owner(u) once per (v, owner) pair —
		// uncompressed 4 B/id plus a 16-byte envelope per list.
		type key struct {
			v uint32
			d int
		}
		sent := make(map[key]bool)
		for v := lo; v < hi; v++ {
			adjLen := int64(len(g.Neighbors(v)))
			for _, u := range g.Neighbors(v) {
				d := part.Owner(u)
				if d == node || sent[key{v, d}] {
					continue
				}
				sent[key{v, d}] = true
				c.Account(node, adjLen*4+16, 1)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Remote intersections execute where the data landed; the compute ran
	// above (shared memory), the result allreduce is a tiny message.
	err = c.RunPhase(func(node int) error {
		c.Account(node, 8, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &core.TriangleResult{Count: total, Stats: core.SimulatedStats(c, 1)}, nil
}

// CollabFilter implements core.Engine: vertex-programming gradient descent.
// SGD is not expressible (paper §3.2) and returns core.ErrUnsupported.
//
// GraphLab's gather sees one neighbour at a time together with the central
// vertex's own value, so the per-edge gradient [r·q − (p·q)q − λp] folds
// directly; we implement the loop explicitly rather than through Spec
// because the gather needs the central value, which the generic runtime
// hides.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Method == core.SGD {
		return nil, core.ErrUnsupported
	}
	k := opt.K
	userF := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemF := core.InitFactors(r.NumItems, k, opt.Seed+1)

	var c *cluster.Cluster
	var userPart *graph.Partition1D
	if opt.Exec.Cluster != nil {
		c, err = newCluster(opt.Exec.ClusterConfig())
		if err != nil {
			return nil, err
		}
		userPart, err = graph.NewPartition1D(r.ByUser, c.Nodes())
		if err != nil {
			return nil, err
		}
		for node := 0; node < c.Nodes(); node++ {
			lo, hi := userPart.Range(node)
			ratings := r.ByUser.Offsets[hi] - r.ByUser.Offsets[lo]
			c.SetBaselineMemory(node, ratings*8+int64(hi-lo)*int64(k)*4+int64(r.NumItems)*int64(k)*4)
		}
	}

	gamma := opt.LearningRate
	rmse := make([]float64, 0, opt.Iterations)
	iterate := func() {
		gradP := make([]float64, len(userF))
		gradQ := make([]float64, len(itemF))
		gatherInto := func(ulo, uhi uint32) {
			for u := ulo; u < uhi; u++ {
				adj, wts := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
				pu := userF[int(u)*k : int(u+1)*k]
				gp := gradP[int(u)*k : int(u+1)*k]
				for i, v := range adj {
					qv := itemF[int(v)*k : int(v+1)*k]
					dot := core.Dot(pu, qv)
					rv := float64(wts[i])
					gq := gradQ[int(v)*k : int(v+1)*k]
					for d := 0; d < k; d++ {
						gp[d] += rv*float64(qv[d]) - dot*float64(qv[d]) - opt.LambdaP*float64(pu[d])
						gq[d] += rv*float64(pu[d]) - dot*float64(pu[d]) - opt.LambdaQ*float64(qv[d])
					}
				}
			}
		}
		if c == nil {
			gatherInto(0, r.NumUsers)
		} else {
			_ = c.RunPhase(func(node int) error {
				lo, hi := userPart.Range(node)
				gatherInto(lo, hi)
				// Every node pushes K-vector messages for the items its
				// users rated — the O(K·E)-style traffic with GraphLab's
				// node-local reduction (one message per touched item).
				touched := make(map[uint32]bool)
				for u := lo; u < hi; u++ {
					for _, v := range r.ByUser.Neighbors(u) {
						touched[v] = true
					}
				}
				c.Account(node, int64(len(touched))*int64(4+4*k), int64(c.Nodes()-1))
				return nil
			})
		}
		apply := func() {
			for i := range userF {
				userF[i] += float32(gamma * gradP[i])
			}
			for i := range itemF {
				itemF[i] += float32(gamma * gradQ[i])
			}
		}
		if c == nil {
			apply()
		} else {
			_ = c.RunPhase(func(node int) error {
				if node == 0 {
					apply()
				}
				// Updated item factors broadcast back to all nodes.
				c.Account(node, int64(r.NumItems)*int64(4*k)/int64(c.Nodes()), 1)
				return nil
			})
		}
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, k, userF, itemF))
		}
	}
	train := func(*par.Pool, *trace.Tracer) int {
		for it := 0; it < opt.Iterations; it++ {
			iterate()
		}
		return opt.Iterations
	}
	var stats core.RunStats
	if c == nil {
		stats = opt.Exec.Local(train)
	} else {
		stats = core.SimulatedStats(c, train(nil, nil))
	}
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}
	return &core.CFResult{K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse, Stats: stats}, nil
}
