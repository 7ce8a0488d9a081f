package combblas

import (
	"fmt"
	"slices"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Engine is the CombBLAS-model engine: every algorithm is a composition of
// sparse matrix primitives over semirings.
type Engine struct{}

var _ core.Engine = (*Engine)(nil)

// New returns the CombBLAS-model engine.
func New() *Engine { return &Engine{} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "CombBLAS" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: false, ProgrammingModel: "sparse matrix"}
}

// newGrid builds the MPI-driven process grid; node counts must be perfect
// squares (paper §4.3).
func (e *Engine) newGrid(cfg cluster.Config, n uint32) (*Grid, error) {
	if cfg.Comm.Bandwidth == 0 {
		cfg.Comm = cluster.MPI()
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	g, err := NewGrid(c, n)
	if err != nil {
		return nil, err
	}
	for node := 0; node < c.Nodes(); node++ {
		c.SetBaselineMemory(node, 0) // raised per algorithm below
	}
	return g, nil
}

// PageRank implements core.Engine as the paper's equation (9):
// p ← r·1 + (1−r)·Aᵀ p̂ with p̂ = p/outdeg, one SpMV per iteration.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	a := FromGraph(g)
	at := FromGraph(g.Transpose()) // rows = destinations, sorted columns
	sr := PlusTimesF64()
	// The degree vector is a row-wise Reduce over A (CombBLAS derives d
	// with its Reduce primitive, eq. 9's d vector), held as counts.
	n := int(g.NumVertices)
	outDeg := make([]int64, n)
	for i, d := range Reduce(a, 1.0, sr) {
		outDeg[i] = int64(d)
	}
	p := make([]float64, n)
	phat := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	normalize := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			phat[i] = backend.DivDegree(p[i], outDeg[i])
		}
	}
	finish := func(y []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = opt.RandomJump + (1-opt.RandomJump)*y[i]
		}
	}

	if opt.Exec.Cluster == nil {
		// Lowered onto the shared backend sweep as (s, a, b) = (1, r, 1−r):
		// the normalize pass is its contribution pass and the finish pass
		// fuses into its affine epilogue — same ascending in-row fold, same
		// finishing expression, but the semiring indirection and the
		// per-iteration output allocation are gone.
		stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
			r := opt.RandomJump
			sweep := backend.NewPageRankSweep(pool, backendView(at), outDeg, 1, r, 1-r, phat).WithTracer(tr)
			for it := 0; it < opt.Iterations; it++ {
				sp := tr.Begin("combblas.spmv", "spmv iteration").Arg("iter", float64(it))
				sweep.Run(p, p)
				sp.End()
			}
			return opt.Iterations
		})
		return &core.PageRankResult{Ranks: p, Stats: stats}, nil
	}

	grid, err := e.newGrid(opt.Exec.ClusterConfig(), g.NumVertices)
	if err != nil {
		return nil, err
	}
	for node := 0; node < grid.C.Nodes(); node++ {
		grid.C.SetBaselineMemory(node, at.MemoryBytes(0)/int64(grid.C.Nodes())+int64(n)*24/int64(grid.C.Nodes()))
	}
	tr := grid.C.Tracer()
	for it := 0; it < opt.Iterations; it++ {
		iterStart := grid.C.VirtualSeconds()
		// Dense vector ops run on the block-diagonal owners' stripes.
		if err := grid.C.RunPhase(func(node int) error {
			rlo, rhi, _, _ := grid.blockBounds(node)
			ri, ci := grid.P2D.Block(node)
			if ri == ci {
				normalize(int(rlo), int(rhi))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		y, err := DistSpMV(grid, at, phat, sr, 8, 1.0)
		if err != nil {
			return nil, err
		}
		if err := grid.C.RunPhase(func(node int) error {
			rlo, rhi, _, _ := grid.blockBounds(node)
			ri, ci := grid.P2D.Block(node)
			if ri == ci {
				finish(y, int(rlo), int(rhi))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		tr.RecordVirtual(trace.PidEngine, "combblas.spmv",
			fmt.Sprintf("spmv iteration %d", it), iterStart, grid.C.VirtualSeconds()-iterStart, nil)
	}
	return &core.PageRankResult{Ranks: p, Stats: core.SimulatedStats(grid.C, opt.Iterations)}, nil
}

// BFS implements core.Engine as repeated frontier SpMVs over the boolean
// semiring (paper's equation 10).
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	a := FromGraph(g) // symmetric input: rows double as the transpose
	n := g.NumVertices
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[opt.Source] = 0
	frontier := []uint32{opt.Source}
	// traverse runs the level loop over whichever frontier product the run
	// uses and returns the number of levels.
	traverse := func(expand func(frontier []uint32) ([]uint32, error)) (int, error) {
		level := int32(0)
		for len(frontier) > 0 {
			level++
			next, err := expand(frontier)
			if err != nil {
				return 0, err
			}
			frontier = frontier[:0]
			for _, v := range next {
				if dist[v] == -1 {
					dist[v] = level
					frontier = append(frontier, v)
				}
			}
		}
		return int(level), nil
	}

	if opt.Exec.Cluster == nil {
		stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) (levels int) {
			// Local frontier expansion lowers onto the backend's level
			// step: its visited bitset replaces the per-level marks scan,
			// and its scratch survives across levels. No in-edge matrix,
			// so every level is a push — the model's SpMSpV.
			step := backend.NewDirectedTraversal(pool, backendView(a), nil, "", nil)
			step.Claim(opt.Source)
			var buf []uint32
			levels, _ = traverse(func(frontier []uint32) ([]uint32, error) {
				buf = step.Step(frontier, buf[:0])
				return buf, nil
			})
			return levels
		})
		return &core.BFSResult{Distances: dist, Stats: stats}, nil
	}

	grid, err := e.newGrid(opt.Exec.ClusterConfig(), n)
	if err != nil {
		return nil, err
	}
	for node := 0; node < grid.C.Nodes(); node++ {
		grid.C.SetBaselineMemory(node, a.MemoryBytes(0)/int64(grid.C.Nodes())+int64(n)*5/int64(grid.C.Nodes()))
	}
	marks := make([]bool, n)
	levels, err := traverse(func(frontier []uint32) ([]uint32, error) {
		return DistSpMSpV(grid, a, frontier, marks)
	})
	if err != nil {
		return nil, err
	}
	return &core.BFSResult{Distances: dist, Stats: core.SimulatedStats(grid.C, levels)}, nil
}

// TriangleCount implements core.Engine as nnz(A ∩ A²) (paper §3.2). The
// A² product is materialized — the expressibility problem that makes
// CombBLAS TC both slow and memory-hungry.
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	a := FromGraph(g)
	if opt.Exec.Cluster == nil {
		var count int64
		stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
			var a2 *SpMat[int64]
			if a2, err = SpGEMM(pool, a, a); err == nil {
				count, err = EWiseMultSum(pool, a, a2)
			}
			return 1
		})
		if err != nil {
			return nil, err
		}
		return &core.TriangleResult{Count: count, Stats: stats}, nil
	}
	grid, err := e.newGrid(opt.Exec.ClusterConfig(), g.NumVertices)
	if err != nil {
		return nil, err
	}
	count, err := DistTriangleCount(grid, a)
	if err != nil {
		return nil, err
	}
	return &core.TriangleResult{Count: count, Stats: core.SimulatedStats(grid.C, 1)}, nil
}

// CollabFilter implements core.Engine: gradient descent where each
// iteration is 3K sparse matrix-vector-style passes (the paper: "a single
// GD iteration consists of K matrix-vector multiplications"; CombBLAS
// cannot hold K-wide dense matrices across a grid, so every latent
// dimension is a separate pass — the expressibility overhead behind its
// 3.5× CF gap). SGD is inexpressible.
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
	rm, err := FromWeightedGraph(r.ByUser)
	if err != nil {
		return nil, err
	}
	errVals := make([]float64, rm.NNZ())

	var grid *Grid
	var userRange, itemRange func(node int) (uint32, uint32)
	if opt.Exec.Cluster != nil {
		// CF's matrix is rectangular; the grid decomposes users into block
		// rows and items into block columns.
		cfg := opt.Exec.ClusterConfig()
		if cfg.Comm.Bandwidth == 0 {
			cfg.Comm = cluster.MPI()
		}
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		p2dU, err := graph.NewPartition2D(r.NumUsers, c.Nodes())
		if err != nil {
			return nil, err
		}
		p2dI, err := graph.NewPartition2D(r.NumItems, c.Nodes())
		if err != nil {
			return nil, err
		}
		grid = &Grid{C: c, P2D: p2dU, Dim: p2dU.GridDim}
		userRange = func(node int) (uint32, uint32) {
			ri, _ := p2dU.Block(node)
			return p2dU.RowStarts[ri], p2dU.RowStarts[ri+1]
		}
		itemRange = func(node int) (uint32, uint32) {
			_, ci := p2dI.Block(node)
			return p2dI.ColStarts[ci], p2dI.ColStarts[ci+1]
		}
		for node := 0; node < c.Nodes(); node++ {
			c.SetBaselineMemory(node, rm.MemoryBytes(4)/int64(c.Nodes())+
				(int64(r.NumUsers)+int64(r.NumItems))*int64(k)*4/int64(c.Nodes()))
		}
	}

	gamma := opt.LearningRate
	rmse := make([]float64, 0, opt.Iterations)

	// CombBLAS cannot hold a K-wide dense factor matrix across the grid
	// (paper §3.2: "multiplication with the p matrix has to be performed
	// in K steps"), so every latent dimension is a separate full pass over
	// the rating matrix: K passes to build the error values, then K passes
	// each for E·Q and Eᵀ·P. This 3K-pass structure — not the arithmetic —
	// is the framework's CF overhead.
	rowWindow := func(u, ilo, ihi uint32) (int, int) {
		cols, _ := rm.Row(u)
		lo, _ := slices.BinarySearch(cols, ilo)
		hi, _ := slices.BinarySearch(cols, ihi)
		return lo, hi
	}
	errPass := func(ulo, uhi, ilo, ihi uint32) {
		for u := ulo; u < uhi; u++ {
			lo, hi := rowWindow(u, ilo, ihi)
			base := rm.Offsets[u]
			for i := lo; i < hi; i++ {
				errVals[base+int64(i)] = 0
			}
		}
		for d := 0; d < k; d++ {
			for u := ulo; u < uhi; u++ {
				cols, _ := rm.Row(u)
				lo, hi := rowWindow(u, ilo, ihi)
				base := rm.Offsets[u]
				pud := float64(userF[int(u)*k+d])
				for i := lo; i < hi; i++ {
					errVals[base+int64(i)] += pud * float64(itemF[int(cols[i])*k+d])
				}
			}
		}
		for u := ulo; u < uhi; u++ {
			_, vals := rm.Row(u)
			lo, hi := rowWindow(u, ilo, ihi)
			base := rm.Offsets[u]
			for i := lo; i < hi; i++ {
				errVals[base+int64(i)] = float64(vals[i]) - errVals[base+int64(i)]
			}
		}
	}
	gradP := make([]float64, len(userF))
	gradQ := make([]float64, len(itemF))
	gradPass := func(ulo, uhi, ilo, ihi uint32) {
		// K SpMV passes for gradP = E·Q − λP (λ inside the per-rating sum,
		// paper eqs. 11–12) …
		for d := 0; d < k; d++ {
			for u := ulo; u < uhi; u++ {
				cols, _ := rm.Row(u)
				lo, hi := rowWindow(u, ilo, ihi)
				base := rm.Offsets[u]
				pud := float64(userF[int(u)*k+d])
				acc := 0.0
				for i := lo; i < hi; i++ {
					acc += errVals[base+int64(i)]*float64(itemF[int(cols[i])*k+d]) - opt.LambdaP*pud
				}
				gradP[int(u)*k+d] += acc
			}
		}
		// … and K passes for gradQ = Eᵀ·P − λQ.
		for d := 0; d < k; d++ {
			for u := ulo; u < uhi; u++ {
				cols, _ := rm.Row(u)
				lo, hi := rowWindow(u, ilo, ihi)
				base := rm.Offsets[u]
				pud := float64(userF[int(u)*k+d])
				for i := lo; i < hi; i++ {
					v := cols[i]
					gradQ[int(v)*k+d] += errVals[base+int64(i)]*pud - opt.LambdaQ*float64(itemF[int(v)*k+d])
				}
			}
		}
	}
	applyStripes := func(ulo, uhi, ilo, ihi uint32) {
		for i := int(ulo) * k; i < int(uhi)*k; i++ {
			userF[i] += float32(gamma * gradP[i])
			gradP[i] = 0
		}
		for i := int(ilo) * k; i < int(ihi)*k; i++ {
			itemF[i] += float32(gamma * gradQ[i])
			gradQ[i] = 0
		}
	}

	endIteration := func() {
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, k, userF, itemF))
		}
	}
	var stats core.RunStats
	if grid == nil {
		stats = opt.Exec.Local(func(*par.Pool, *trace.Tracer) int {
			for it := 0; it < opt.Iterations; it++ {
				errPass(0, r.NumUsers, 0, r.NumItems)
				gradPass(0, r.NumUsers, 0, r.NumItems)
				applyStripes(0, r.NumUsers, 0, r.NumItems)
				endIteration()
			}
			return opt.Iterations
		})
	} else {
		for it := 0; it < opt.Iterations; it++ {
			if err := grid.C.RunPhase(func(node int) error {
				ulo, uhi := userRange(node)
				ilo, ihi := itemRange(node)
				errPass(ulo, uhi, ilo, ihi)
				gradPass(ulo, uhi, ilo, ihi)
				// 3K vector exchanges per iteration: the K error passes
				// and 2K gradient SpMVs each allgather/reduce a dense
				// column of P or Q.
				grid.accountSpMVTraffic(node, int(r.NumUsers+r.NumItems)/2, 8, float64(3*k))
				return nil
			}); err != nil {
				return nil, err
			}
			if err := grid.C.RunPhase(func(node int) error {
				ulo, uhi := userRange(node)
				ilo, ihi := itemRange(node)
				ri, ci := grid.P2D.Block(node)
				if ri == ci {
					applyStripes(ulo, uhi, ilo, ihi)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			endIteration()
		}
		stats = core.SimulatedStats(grid.C, opt.Iterations)
	}
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}
	return &core.CFResult{K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse, Stats: stats}, nil
}
