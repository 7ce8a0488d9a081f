package giraph

import (
	"math"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// coordinationSeconds models the per-superstep Hadoop/ZooKeeper
// coordination cost of a Giraph job (job heartbeats, barrier consensus,
// worker bookkeeping) that exists on top of message traffic. The paper's
// Giraph runtimes — minutes where native takes seconds, even single-node —
// are dominated by this fixed machinery; measured Go compute alone would
// understate the gap (substitution documented in DESIGN.md §3).
const coordinationSeconds = 0.015

// Engine is the Giraph-model engine.
type Engine struct {
	// splitSupersteps enables the §6.1.3 phased-superstep memory fix for
	// the message-heavy algorithms (TC and CF). The paper splits into 100
	// phases; we default to the same.
	splitSupersteps int
	// combine enables sender-side message combiners (sum for PageRank,
	// min for BFS) and workers raises the per-node worker count — the two
	// §6.2 roadmap recommendations for Giraph, off in the stock engine.
	combine bool
	workers int
}

var _ core.Engine = (*Engine)(nil)

// New returns the Giraph-model engine with the phased-superstep
// optimization the paper applied (100 phases for TC/CF).
func New() *Engine { return &Engine{splitSupersteps: 100} }

// NewUnsplit returns a Giraph engine without phased supersteps — the
// configuration that runs out of memory on large triangle-counting inputs
// in the paper.
func NewUnsplit() *Engine { return &Engine{splitSupersteps: 1} }

// NewImproved returns a Giraph engine with the paper's §6.2
// recommendations applied: message combiners (smaller buffers, less
// duplicated communication) and 24 workers per node (better CPU
// utilization).
func NewImproved() *Engine {
	return &Engine{splitSupersteps: 100, combine: true, workers: 24}
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "Giraph" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: false, ProgrammingModel: "vertex"}
}

// newCluster builds Giraph's cluster: netty transport, with the engine's
// worker count (4 stock, 24 improved) of the provisioned threads busy.
func (e *Engine) newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Comm.Bandwidth == 0 {
		cfg.Comm = cluster.Netty()
	}
	if cfg.WorkersPerNode == 0 {
		cfg.WorkersPerNode = workersPerNode
		if e.workers > 0 {
			cfg.WorkersPerNode = e.workers
		}
	}
	return cluster.New(cfg)
}

// runJob runs the job: on a cluster, or inside the single-node timed
// region, where a non-nil lower binds the program's lowering to the call's
// pool and runs that in place of the stock runtime (the result then has no
// Values: the caller reads the lowering's vector). The modeled
// coordination cost is added on top of either clock.
func (e *Engine) runJob(job *Job, exec core.Exec, lower func(*par.Pool) Lowering) (*Result, core.RunStats, error) {
	if e.workers > 0 {
		job.Workers = e.workers
	}
	job.Tracer = exec.Tracer()
	if exec.Cluster != nil {
		c, err := e.newCluster(exec.ClusterConfig())
		if err != nil {
			return nil, core.RunStats{}, err
		}
		job.Cluster = c
		res, err := Run(job)
		if err != nil {
			return nil, core.RunStats{}, err
		}
		stats := core.SimulatedStats(c, res.Supersteps)
		stats.WallSeconds += float64(res.Supersteps) * coordinationSeconds
		return res, stats, nil
	}
	var res *Result
	var err error
	stats := exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		if lower != nil {
			res = runLowered(job, lower(pool))
		} else {
			res, err = Run(job)
		}
		if err != nil {
			return 0
		}
		return res.Supersteps
	})
	if err != nil {
		return nil, core.RunStats{}, err
	}
	stats.WallSeconds += float64(res.Supersteps) * coordinationSeconds
	return res, stats, nil
}

// PageRank implements core.Engine as the paper's Algorithm 1: superstep 0
// seeds contributions, each later superstep folds incoming messages and
// re-broadcasts rank/degree along out-edges.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	r := opt.RandomJump
	job := &Job{
		Graph:         g,
		Init:          func(uint32) any { return float64(1) },
		MaxSupersteps: opt.Iterations + 1,
		MessageBytes:  func(any) int { return 8 },
	}
	job.EncodeValue, job.DecodeValue = Float64Codec()
	job.Compute = prCompute(job, r)
	var lower func(*par.Pool) Lowering
	var low *prLowering
	if e.combine {
		// PageRank's messages fold with addition (§6.2 recommendation).
		job.Combiner = func(a, b any) any { return a.(float64) + b.(float64) }
	} else if opt.Exec.Cluster == nil {
		// A combiner-less single-node run lowers onto the shared SpMV
		// backend (DESIGN.md §12); everything else is the stock runtime.
		in, outDeg := g.Transpose(), g.OutDegrees()
		lower = func(pool *par.Pool) Lowering {
			low = newPRLowering(pool, in, outDeg, r, job.MaxSupersteps, job.Tracer)
			return low
		}
	}
	res, stats, err := e.runJob(job, opt.Exec, lower)
	if err != nil {
		return nil, err
	}
	var ranks []float64
	if low != nil {
		ranks = low.ranks
	} else {
		ranks = make([]float64, g.NumVertices)
		for i, v := range res.Values {
			ranks[i] = v.(float64)
		}
	}
	stats.Iterations = opt.Iterations
	return &core.PageRankResult{Ranks: ranks, Stats: stats}, nil
}

// prCompute is the PageRank vertex program (paper Algorithm 1).
func prCompute(job *Job, r float64) Computation {
	return func(ctx *Context, messages []any) {
		if ctx.Superstep() > 0 {
			sum := 0.0
			for _, m := range messages {
				sum += m.(float64)
			}
			ctx.SetValue(r + (1-r)*sum)
		}
		if ctx.Superstep() < job.MaxSupersteps-1 {
			if deg := len(ctx.OutEdges()); deg > 0 {
				ctx.SendMessageToAllEdges(ctx.Value().(float64) / float64(deg))
			}
		} else {
			ctx.VoteToHalt()
		}
	}
}

// BFS implements core.Engine as the paper's Algorithm 2.
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	const inf = int32(1) << 30
	source := opt.Source
	job := &Job{
		Graph: g,
		Init: func(id uint32) any {
			if id == source {
				return int32(0)
			}
			return inf
		},
		MessageBytes: func(any) int { return 4 },
		Compute: func(ctx *Context, messages []any) {
			dist := ctx.Value().(int32)
			improved := false
			for _, m := range messages {
				if d := m.(int32); d < dist {
					dist = d
					improved = true
				}
			}
			if improved {
				ctx.SetValue(dist)
			}
			if (ctx.Superstep() == 0 && ctx.ID() == source) || improved {
				ctx.SendMessageToAllEdges(dist + 1)
			}
			ctx.VoteToHalt()
		},
	}
	job.EncodeValue, job.DecodeValue = Int32Codec()
	var lower func(*par.Pool) Lowering
	var low *bfsLowering
	if e.combine {
		// BFS messages fold with min (§6.2 recommendation).
		job.Combiner = func(a, b any) any {
			if a.(int32) < b.(int32) {
				return a
			}
			return b
		}
	} else if opt.Exec.Cluster == nil {
		// A combiner-less single-node run lowers onto the backend's
		// level step (min-combine ≡ first claim wins).
		lower = func(pool *par.Pool) Lowering {
			low = newBFSLowering(pool, g, source)
			return low
		}
	}
	res, stats, err := e.runJob(job, opt.Exec, lower)
	if err != nil {
		return nil, err
	}
	var dist []int32
	if low != nil {
		dist = low.dist
	} else {
		dist = make([]int32, g.NumVertices)
		for i, v := range res.Values {
			dist[i] = v.(int32)
		}
	}
	for i, d := range dist {
		if d >= inf {
			dist[i] = -1
		}
	}
	return &core.BFSResult{Distances: dist, Stats: stats}, nil
}

// TriangleCount implements core.Engine: superstep 0 ships each vertex's
// adjacency list to its out-neighbours (the O(Σ d²) message volume of
// Table 1); superstep 1 intersects received lists with the local list and
// accumulates into the global counter. Phased supersteps keep the buffers
// bounded — without them Giraph exhausts memory on large inputs (§6.1.3).
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	job := &Job{
		Graph:           g,
		Init:            func(uint32) any { return nil },
		MaxSupersteps:   2,
		SplitSupersteps: e.splitSupersteps,
		MessageBytes:    func(m any) int { return 4 * len(m.([]uint32)) },
		Compute: func(ctx *Context, messages []any) {
			switch ctx.Superstep() {
			case 0:
				if adj := ctx.OutEdges(); len(adj) > 0 {
					// Each message serializes its own copy of the list,
					// as Giraph's writables do.
					for _, t := range adj {
						ctx.SendMessage(t, append([]uint32(nil), adj...))
					}
				}
				ctx.VoteToHalt()
			case 1:
				mine := ctx.OutEdges()
				var count int64
				for _, m := range messages {
					count += int64(graph.IntersectSortedCount(mine, m.([]uint32)))
				}
				if count > 0 {
					ctx.AddToCounter(count)
				}
				ctx.VoteToHalt()
			}
		},
	}
	res, stats, err := e.runJob(job, opt.Exec, nil)
	if err != nil {
		return nil, err
	}
	return &core.TriangleResult{Count: res.Counter, Stats: stats}, nil
}

// cfValue boxes a vertex's latent factor.
type cfValue struct {
	factor []float32
}

// cfMessage carries a partner's factor and the edge rating.
type cfMessage struct {
	from   uint32
	factor []float32
	rating float32
}

// CollabFilter implements core.Engine: vertex-programming gradient descent
// over the unified user+item vertex space. Each GD iteration is one
// superstep exchanging O(K·E) bytes of factor messages (paper §3.2), with
// phased supersteps bounding the buffer (§6.1.3). SGD is inexpressible.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Method == core.SGD {
		return nil, core.ErrUnsupported
	}
	k := opt.K
	numUsers := r.NumUsers
	// Unified graph: users [0,numUsers), items [numUsers, numUsers+items),
	// weighted edges in both directions.
	unified, err := buildUnified(r)
	if err != nil {
		return nil, err
	}
	userF := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemF := core.InitFactors(r.NumItems, k, opt.Seed+1)

	gamma := opt.LearningRate
	lambdaOf := func(id uint32) float64 {
		if id < numUsers {
			return opt.LambdaP
		}
		return opt.LambdaQ
	}
	factorOf := func(id uint32) []float32 {
		if id < numUsers {
			return userF[int(id)*k : int(id+1)*k]
		}
		j := int(id - numUsers)
		return itemF[j*k : (j+1)*k]
	}

	rmseTrace := make([]float64, 0, opt.Iterations)
	job := &Job{
		Graph:           unified,
		MaxSupersteps:   opt.Iterations + 1,
		SplitSupersteps: e.splitSupersteps,
		MessageBytes:    func(any) int { return 4 + 4*k },
		Init: func(id uint32) any {
			return &cfValue{factor: factorOf(id)}
		},
		Compute: func(ctx *Context, messages []any) {
			val := ctx.Value().(*cfValue)
			if ctx.Superstep() > 0 {
				// Fold partner factors received from the previous
				// superstep into a gradient step. The step size decays per
				// iteration, matching the reference schedule.
				step := gamma * math.Pow(opt.StepDecay, float64(ctx.Superstep()-1))
				lam := lambdaOf(ctx.ID())
				grad := make([]float64, k)
				for _, m := range messages {
					msg := m.(*cfMessage)
					dot := core.Dot(val.factor, msg.factor)
					rv := float64(msg.rating)
					for d := 0; d < k; d++ {
						grad[d] += rv*float64(msg.factor[d]) - dot*float64(msg.factor[d]) - lam*float64(val.factor[d])
					}
				}
				if len(messages) > 0 {
					next := make([]float32, k)
					for d := 0; d < k; d++ {
						next[d] = val.factor[d] + float32(step*grad[d])
					}
					val.factor = next
				}
			}
			if ctx.Superstep() < ctx.rt.job.MaxSupersteps-1 {
				weights := ctx.EdgeWeights()
				for i, t := range ctx.OutEdges() {
					ctx.SendMessage(t, &cfMessage{from: ctx.ID(), factor: val.factor, rating: weights[i]})
				}
			} else {
				ctx.VoteToHalt()
			}
		},
	}

	var stats core.RunStats
	var res *Result
	res, stats, err = e.runJob(job, opt.Exec, nil)
	if err != nil {
		return nil, err
	}
	// Unpack final factors and compute the RMSE trajectory's final point;
	// Giraph jobs don't naturally expose per-superstep metrics, so the
	// engine recomputes RMSE from each superstep via a second pass below.
	outUserF := make([]float32, int(r.NumUsers)*k)
	outItemF := make([]float32, int(r.NumItems)*k)
	for id, v := range res.Values {
		f := v.(*cfValue).factor
		if uint32(id) < numUsers {
			copy(outUserF[id*k:], f)
		} else {
			copy(outItemF[(id-int(numUsers))*k:], f)
		}
	}
	final := core.RMSE(r, k, outUserF, outItemF)
	if opt.SkipRMSETrajectory {
		rmseTrace = append(rmseTrace, final)
	} else {
		// Replays the per-iteration RMSE with the reference GD (identical
		// update rule and seed) for the trajectory.
		ref := core.RefCollabFilterGD(r, opt)
		rmseTrace = append(rmseTrace, ref.RMSE...)
		if len(rmseTrace) > 0 {
			rmseTrace[len(rmseTrace)-1] = final
		}
	}
	stats.Iterations = opt.Iterations
	return &core.CFResult{K: k, UserFactors: outUserF, ItemFactors: outItemF, RMSE: rmseTrace, Stats: stats}, nil
}

// buildUnified makes the user+item vertex space graph with rating-weighted
// edges in both directions.
func buildUnified(r *graph.Bipartite) (*graph.CSR, error) {
	n := r.NumUsers + r.NumItems
	edges := make([]graph.WeightedEdge, 0, 2*r.NumRatings())
	for u := uint32(0); u < r.NumUsers; u++ {
		adj, w := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
		for i, v := range adj {
			edges = append(edges,
				graph.WeightedEdge{Src: u, Dst: r.NumUsers + v, Weight: w[i]},
				graph.WeightedEdge{Src: r.NumUsers + v, Dst: u, Weight: w[i]})
		}
	}
	return graph.FromWeightedEdges(n, edges)
}
