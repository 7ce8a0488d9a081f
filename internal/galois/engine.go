// Package galois reimplements the Galois programming model (paper §3):
// algorithms are parallel iterations over work items, handed out in
// chunks that idle workers claim, and BFS runs on the bulk-synchronous
// executor of Algorithm 3. Every loop runs on the par.Pool its
// core.Exec.Local call names. Galois is single-node (Table 2) but,
// because partitioning is flexible and updates are immediately globally
// visible, it is the only framework besides native code that can express
// true SGD (§3.2).
package galois

import (
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// chunkSize is the granularity of work distribution: Galois hands out
// work items in chunks of 64 to amortize scheduling.
const chunkSize = 64

// Engine is the Galois-model engine.
type Engine struct{}

var _ core.Engine = (*Engine)(nil)

// New returns the Galois-model engine.
func New() *Engine { return &Engine{} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "Galois" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: false, SGD: true, ProgrammingModel: "task"}
}

// PageRank implements core.Engine: each work item is a vertex program
// updating its own rank (paper §3.1: "Each work item in Galois is a vertex
// program for updating its pagerank"). Tasks read all program data through
// shared memory.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return nil, core.ErrSingleNodeOnly
	}
	in := g.Transpose()
	outDeg := g.OutDegrees()
	n := g.NumVertices
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1
	}
	stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
		sweep := backend.NewSweep(pool, int(n), chunkSize, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, j := range in.Neighbors(uint32(v)) {
					if outDeg[j] > 0 {
						sum += pr[j] / float64(outDeg[j])
					}
				}
				next[v] = opt.RandomJump + (1-opt.RandomJump)*sum
			}
		})
		for it := 0; it < opt.Iterations; it++ {
			sp := tr.Begin("galois.round", "pagerank round").Arg("iter", float64(it))
			sweep.Run()
			pr, next = next, pr
			sp.End()
		}
		return opt.Iterations
	})
	return &core.PageRankResult{Ranks: pr, Stats: stats}, nil
}

// BFS implements core.Engine with the paper's Algorithm 3: the
// bulk-synchronous executor keeps one worklist per level and processes
// each level in parallel. A vertex's level is claimed by CAS, so the
// distances do not depend on the order a round runs in.
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return nil, core.ErrSingleNodeOnly
	}
	n := g.NumVertices
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[opt.Source] = 0
	stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
		return bulkRounds(pool, tr, []uint32{opt.Source}, func(v uint32, push []uint32) []uint32 {
			level := atomic.LoadInt32(&dist[v])
			for _, t := range g.Neighbors(v) {
				if atomic.CompareAndSwapInt32(&dist[t], -1, level+1) {
					push = append(push, t)
				}
			}
			return push
		})
	})
	return &core.BFSResult{Distances: dist, Stats: stats}, nil
}

// bulkRounds is the bulk-synchronous executor: round k runs body once for
// every item of the frontier, in chunks claimed on pool, and what the
// bodies push becomes round k+1's frontier after the barrier. body appends
// its pushes to the buffer it is given, which belongs to the executing
// worker, and returns it. The loop stops at an empty frontier and returns
// the number of rounds; each round is one galois.round span carrying its
// frontier size.
func bulkRounds(pool *par.Pool, tr *trace.Tracer, initial []uint32, body func(item uint32, push []uint32) []uint32) int {
	pushed := make([][]uint32, pool.Workers())
	frontier := append([]uint32(nil), initial...)
	var next []uint32
	rounds := 0
	for len(frontier) > 0 {
		sp := tr.Begin("galois.round", "bfs round").Arg("frontier", float64(len(frontier)))
		items := frontier
		backend.NewSweep(pool, len(items), chunkSize, func(w, lo, hi int) {
			for _, item := range items[lo:hi] {
				pushed[w] = body(item, pushed[w])
			}
		}).Run()
		next = next[:0]
		for w, p := range pushed {
			next = append(next, p...)
			pushed[w] = p[:0]
		}
		frontier, next = next, frontier
		rounds++
		sp.End()
	}
	return rounds
}

// TriangleCount implements core.Engine with the paper's Algorithm 4:
// parallel foreach over vertices, sorted-adjacency set intersections.
// With the acyclic orientation the adjacency lists already hold only
// larger-id neighbours, so S1 and S2 are the lists themselves. Each chunk
// adds its partial count once; integer addition makes the total exact at
// any worker count.
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return nil, core.ErrSingleNodeOnly
	}
	var count atomic.Int64
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		backend.NewSweep(pool, int(g.NumVertices), chunkSize, func(_, lo, hi int) {
			var local int64
			for v := lo; v < hi; v++ {
				s1 := g.Neighbors(uint32(v))
				for _, m := range s1 {
					local += int64(graph.IntersectSortedCount(s1, g.Neighbors(m)))
				}
			}
			if local > 0 {
				count.Add(local)
			}
		}).Run()
		return 1
	})
	return &core.TriangleResult{Count: count.Load(), Stats: stats}, nil
}

// CollabFilter implements core.Engine. Galois is the only non-native
// engine that expresses true SGD (paper §3.2): flexible partitioning
// allows the n² diagonal chunk scheme, and single-node shared memory keeps
// every update globally visible. Each work item performs SGD updates on
// one block's edges.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return nil, core.ErrSingleNodeOnly
	}
	k := opt.K
	userF := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemF := core.InitFactors(r.NumItems, k, opt.Seed+1)

	// Gemulla's n² uniform 2-D chunking (paper §3.2, point (1)): Native's
	// shuffled grid, so Galois's SGD is Native's.
	w := core.NumStripes(r)
	blocks, _, _ := core.BuildBlocks(r, w)
	core.ShuffleBlocks(blocks, opt.Seed)

	var rmse []float64
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		if opt.Method == core.SGD {
			rmse = core.TrainSGD(pool, r, opt, blocks, userF, itemF)
		} else {
			rmse = gd(pool, r, opt, w, blocks, userF, itemF)
		}
		return opt.Iterations
	})
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}
	return &core.CFResult{K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse, Stats: stats}, nil
}

// gd runs full-batch gradient descent over the block grid on the call's
// pool: the diagonal schedule keeps the gradient sums write-disjoint the
// way it keeps SGD's updates, and each iteration takes one aggregate step.
// It updates the factors in place and returns the per-iteration RMSE
// trajectory (empty when skipped).
func gd(pool *par.Pool, r *graph.Bipartite, opt core.CFOptions, w int, blocks [][]core.BlockEdge, userF, itemF []float32) []float64 {
	gradP := make([]float64, len(userF))
	gradQ := make([]float64, len(itemF))
	rmse := make([]float64, 0, opt.Iterations)
	gamma := opt.LearningRate
	pass := core.DiagonalSweep(pool, w, func(b int) { gdBlock(blocks[b], userF, itemF, gradP, gradQ, opt.K, opt) })
	for it := 0; it < opt.Iterations; it++ {
		clear(gradP)
		clear(gradQ)
		pass()
		for i := range userF {
			userF[i] += float32(gamma * gradP[i])
		}
		for i := range itemF {
			itemF[i] += float32(gamma * gradQ[i])
		}
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, opt.K, userF, itemF))
		}
	}
	return rmse
}

// gdBlock adds one block's ratings to the full-batch gradients.
func gdBlock(block []core.BlockEdge, userF, itemF []float32, gradP, gradQ []float64, k int, opt core.CFOptions) {
	for _, edge := range block {
		pu := userF[int(edge.U)*k : int(edge.U+1)*k]
		qv := itemF[int(edge.V)*k : int(edge.V+1)*k]
		ev := float64(edge.Rating) - core.Dot(pu, qv)
		gp := gradP[int(edge.U)*k : int(edge.U+1)*k]
		gq := gradQ[int(edge.V)*k : int(edge.V+1)*k]
		for d := 0; d < k; d++ {
			gp[d] += ev*float64(qv[d]) - opt.LambdaP*float64(pu[d])
			gq[d] += ev*float64(pu[d]) - opt.LambdaQ*float64(qv[d])
		}
	}
}
