package galois

import (
	"math/rand"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/trace"
)

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
	vertices := vertexList(n)
	stats := opt.Exec.Local(func(_ *backend.Pool, tr *trace.Tracer) int {
		for it := 0; it < opt.Iterations; it++ {
			sp := tr.Begin("galois.round", "pagerank round").Arg("iter", float64(it))
			ForEach(vertices, func(v uint32, _ *Ctx[uint32]) {
				sum := 0.0
				for _, j := range in.Neighbors(v) {
					if outDeg[j] > 0 {
						sum += pr[j] / float64(outDeg[j])
					}
				}
				next[v] = opt.RandomJump + (1-opt.RandomJump)*sum
			})
			pr, next = next, pr
			sp.End()
		}
		return opt.Iterations
	})
	return &core.PageRankResult{Ranks: pr, Stats: stats}, nil
}

// vertexList is the initial worklist of the per-vertex loops: every vertex
// id in order.
func vertexList(n uint32) []uint32 {
	vertices := make([]uint32, n)
	for i := range vertices {
		vertices[i] = uint32(i)
	}
	return vertices
}

// BFS implements core.Engine with the paper's Algorithm 3: the
// bulk-synchronous executor maintains per-level worklists behind the
// scenes and processes each level in parallel.
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
		//lint:ignore atomic initialization happens-before ForEachBulk spawns workers
		dist[i] = -1
	}
	//lint:ignore atomic initialization happens-before ForEachBulk spawns workers
	dist[opt.Source] = 0
	stats := opt.Exec.Local(func(*backend.Pool, *trace.Tracer) int {
		return ForEachBulk([]uint32{opt.Source}, func(v uint32, push func(uint32)) {
			level := atomic.LoadInt32(&dist[v])
			for _, t := range g.Neighbors(v) {
				if atomic.CompareAndSwapInt32(&dist[t], -1, level+1) {
					push(t)
				}
			}
		})
	})
	return &core.BFSResult{Distances: dist, Stats: stats}, nil
}

// TriangleCount implements core.Engine with the paper's Algorithm 4:
// parallel foreach over vertices, sorted-adjacency set intersections.
// With the acyclic orientation the adjacency lists already hold only
// larger-id neighbours, so S1 and S2 are the lists themselves.
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return nil, core.ErrSingleNodeOnly
	}
	vertices := vertexList(g.NumVertices)
	var count int64
	stats := opt.Exec.Local(func(*backend.Pool, *trace.Tracer) int {
		ForEach(vertices, func(v uint32, _ *Ctx[uint32]) {
			s1 := g.Neighbors(v)
			var local int64
			for _, m := range s1 {
				local += int64(intersectSorted(s1, g.Neighbors(m)))
			}
			if local > 0 {
				atomic.AddInt64(&count, local)
			}
		})
		return 1
	})
	return &core.TriangleResult{Count: atomic.LoadInt64(&count), Stats: stats}, nil
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

// sgdTask is one work item: process the ratings of block (stripe, sub).
type sgdTask struct {
	stripe int
	block  []cfEdge
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
	// step is one iteration of the chosen optimizer.
	var step func()
	if opt.Method == core.GradientDescent {
		// GD also runs fine as tasks, one aggregate pass per iteration.
		gradP := make([]float64, len(userF))
		gradQ := make([]float64, len(itemF))
		stripes := make([]int, w)
		for i := range stripes {
			stripes[i] = i
		}
		step = func() {
			for i := range gradP {
				gradP[i] = 0
			}
			for i := range gradQ {
				gradQ[i] = 0
			}
			// Diagonal scheduling keeps tasks write-disjoint for gradQ too.
			for sub := 0; sub < w; sub++ {
				ForEach(stripes, func(stripe int, _ *Ctx[int]) {
					for _, edge := range blocks[stripe*w+(stripe+sub)%w] {
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
				})
			}
			for i := range userF {
				userF[i] += float32(gamma * gradP[i])
			}
			for i := range itemF {
				itemF[i] += float32(gamma * gradQ[i])
			}
		}
	} else {
		step = func() {
			for sub := 0; sub < w; sub++ {
				tasks := make([]sgdTask, 0, w)
				for stripe := 0; stripe < w; stripe++ {
					tasks = append(tasks, sgdTask{stripe: stripe, block: blocks[stripe*w+(stripe+sub)%w]})
				}
				ForEach(tasks, func(task sgdTask, _ *Ctx[sgdTask]) {
					for _, edge := range task.block {
						pu := userF[int(edge.u)*k : int(edge.u+1)*k]
						qv := itemF[int(edge.v)*k : int(edge.v+1)*k]
						ev := float64(edge.rating) - core.Dot(pu, qv)
						for d := 0; d < k; d++ {
							pud, qvd := float64(pu[d]), float64(qv[d])
							pu[d] = float32(pud + gamma*(ev*qvd-opt.LambdaP*pud))
							qv[d] = float32(qvd + gamma*(ev*pud-opt.LambdaQ*qvd))
						}
					}
				})
			}
		}
	}
	rmse := make([]float64, 0, opt.Iterations)
	stats := opt.Exec.Local(func(*backend.Pool, *trace.Tracer) int {
		for it := 0; it < opt.Iterations; it++ {
			step()
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
