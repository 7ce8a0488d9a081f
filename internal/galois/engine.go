// Package galois reimplements the Galois programming model (paper §3):
// algorithms are parallel iterations over work items, handed out in
// chunks that idle workers claim, and BFS runs on the bulk-synchronous
// executor of Algorithm 3. Every loop runs on the backend.Pool its
// core.Exec.Local call names. Galois is single-node (Table 2) but,
// because partitioning is flexible and updates are immediately globally
// visible, it is the only framework besides native code that can express
// true SGD (§3.2).
package galois

import (
	"math/rand"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
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
	stats := opt.Exec.Local(func(pool *backend.Pool, tr *trace.Tracer) int {
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
		//lint:ignore atomic initialization happens-before the first round: the pool's wake channel publishes it to every worker
		dist[i] = -1
	}
	//lint:ignore atomic initialization happens-before the first round: the pool's wake channel publishes it to every worker
	dist[opt.Source] = 0
	stats := opt.Exec.Local(func(pool *backend.Pool, tr *trace.Tracer) int {
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
func bulkRounds(pool *backend.Pool, tr *trace.Tracer, initial []uint32, body func(item uint32, push []uint32) []uint32) int {
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
	stats := opt.Exec.Local(func(pool *backend.Pool, _ *trace.Tracer) int {
		backend.NewSweep(pool, int(g.NumVertices), chunkSize, func(_, lo, hi int) {
			var local int64
			for v := lo; v < hi; v++ {
				s1 := g.Neighbors(uint32(v))
				for _, m := range s1 {
					local += int64(intersectSorted(s1, g.Neighbors(m)))
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

func intersectSorted(a, b []uint32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

type cfEdge struct {
	u, v   uint32
	rating float32
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

	// Gemulla's n² uniform 2-D chunking (paper §3.2, point (1)).
	w := 8
	for uint32(w) > r.NumUsers || uint32(w) > r.NumItems {
		w /= 2
	}
	if w < 1 {
		w = 1
	}
	userStripe := stripeBounds(r.NumUsers, w)
	itemStripe := stripeBounds(r.NumItems, w)
	blocks := make([][]cfEdge, w*w)
	for u := uint32(0); u < r.NumUsers; u++ {
		su := stripeOf(userStripe, u)
		adj, wts := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
		for i, v := range adj {
			sv := stripeOf(itemStripe, v)
			blocks[su*w+sv] = append(blocks[su*w+sv], cfEdge{u: u, v: v, rating: wts[i]})
		}
	}
	for i := range blocks {
		rng := rand.New(rand.NewSource(opt.Seed + int64(i)*104729))
		rng.Shuffle(len(blocks[i]), func(a, b int) { blocks[i][a], blocks[i][b] = blocks[i][b], blocks[i][a] })
	}

	gamma := opt.LearningRate
	gd := opt.Method == core.GradientDescent
	var gradP, gradQ []float64
	if gd {
		gradP = make([]float64, len(userF))
		gradQ = make([]float64, len(itemF))
	}
	rmse := make([]float64, 0, opt.Iterations)
	stats := opt.Exec.Local(func(pool *backend.Pool, _ *trace.Tracer) int {
		// Diagonal sub's w blocks cover disjoint user and disjoint item
		// stripes, so they run side by side: each worker takes a
		// contiguous run of them and runs each block serially. GD's
		// gradient sums stay write-disjoint the same way.
		sub := 0
		diagonal := backend.NewDense(pool, w, func(lo, hi int) {
			for stripe := lo; stripe < hi; stripe++ {
				block := blocks[stripe*w+(stripe+sub)%w]
				if gd {
					gdBlock(block, userF, itemF, gradP, gradQ, k, opt)
				} else {
					sgdBlock(block, userF, itemF, k, gamma, opt)
				}
			}
		})
		for it := 0; it < opt.Iterations; it++ {
			if gd {
				clear(gradP)
				clear(gradQ)
			}
			for sub = 0; sub < w; sub++ {
				diagonal.Run()
			}
			if gd {
				// GD: one aggregate step per iteration.
				for i := range userF {
					userF[i] += float32(gamma * gradP[i])
				}
				for i := range itemF {
					itemF[i] += float32(gamma * gradQ[i])
				}
			}
			gamma *= opt.StepDecay
			if !opt.SkipRMSETrajectory {
				rmse = append(rmse, core.RMSE(r, k, userF, itemF))
			}
		}
		return opt.Iterations
	})
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}
	return &core.CFResult{K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse, Stats: stats}, nil
}

// sgdBlock applies the SGD updates to every rating of one block, in its
// shuffled order.
func sgdBlock(block []cfEdge, userF, itemF []float32, k int, gamma float64, opt core.CFOptions) {
	for _, edge := range block {
		pu := userF[int(edge.u)*k : int(edge.u+1)*k]
		qv := itemF[int(edge.v)*k : int(edge.v+1)*k]
		ev := float64(edge.rating) - core.Dot(pu, qv)
		for d := 0; d < k; d++ {
			pud, qvd := float64(pu[d]), float64(qv[d])
			pu[d] = float32(pud + gamma*(ev*qvd-opt.LambdaP*pud))
			qv[d] = float32(qvd + gamma*(ev*pud-opt.LambdaQ*qvd))
		}
	}
}

// gdBlock adds one block's ratings to the full-batch gradients.
func gdBlock(block []cfEdge, userF, itemF []float32, gradP, gradQ []float64, k int, opt core.CFOptions) {
	for _, edge := range block {
		pu := userF[int(edge.u)*k : int(edge.u+1)*k]
		qv := itemF[int(edge.v)*k : int(edge.v+1)*k]
		ev := float64(edge.rating) - core.Dot(pu, qv)
		gp := gradP[int(edge.u)*k : int(edge.u+1)*k]
		gq := gradQ[int(edge.v)*k : int(edge.v+1)*k]
		for d := 0; d < k; d++ {
			gp[d] += ev*float64(qv[d]) - opt.LambdaP*float64(pu[d])
			gq[d] += ev*float64(pu[d]) - opt.LambdaQ*float64(qv[d])
		}
	}
}

func stripeBounds(n uint32, w int) []uint32 {
	b := make([]uint32, w+1)
	for i := 0; i <= w; i++ {
		b[i] = graph.MustU32(int64(uint64(n) * uint64(i) / uint64(w)))
	}
	return b
}

func stripeOf(bounds []uint32, v uint32) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
