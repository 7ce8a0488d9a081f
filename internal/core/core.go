// Package core defines the contract every graph-analytics engine in
// graphmaze implements: the four algorithms of the paper (PageRank, BFS,
// triangle counting, collaborative filtering), their options and results,
// and serial reference implementations used to cross-validate engines.
//
// Each engine implements the algorithms through its own programming
// model, because the per-model overhead is the phenomenon the paper
// studies. What two models compute identically is one kernel: SGD's
// block grid lives here beside the factor helpers, the lowered PageRank
// sweep in backend (DESIGN.md §12).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/graph"
	"graphmaze/internal/metrics"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Exec selects where an algorithm runs: in-process on the host (nil
// Cluster), or on a simulated multi-node cluster.
type Exec struct {
	// Cluster, when non-nil, requests a distributed run with the given
	// cluster configuration. Engines without multi-node support return
	// ErrSingleNodeOnly.
	Cluster *cluster.Config
	// Trace, when non-nil, receives the run's phase spans and counters
	// (per-iteration kernel spans, engine supersteps, scheduler lanes).
	// Engines thread it unconditionally; the nil tracer is a no-op whose
	// hot-path cost is one pointer check.
	Trace *trace.Tracer
}

// Tracer returns the run's tracer: the Exec-level one, or the cluster
// config's when only that was set. Nil when tracing is disabled.
func (e Exec) Tracer() *trace.Tracer {
	if e.Trace != nil {
		return e.Trace
	}
	if e.Cluster != nil {
		return e.Cluster.Trace
	}
	return nil
}

// ClusterConfig returns the configuration of a simulated run: a copy of
// *e.Cluster whose Trace is the run's tracer, so a tracer set on Exec alone
// reaches the per-node tracks. Engines adjust the copy (overlap, default
// comm layer, workers per node) and hand it to cluster.New. e.Cluster must
// be non-nil.
func (e Exec) ClusterConfig() cluster.Config {
	cfg := *e.Cluster
	cfg.Trace = e.Tracer()
	return cfg
}

// Local runs the kernel of one single-node engine call and is the only code
// on such a path that builds a par.Pool, attaches the run's tracer to
// it, reads the wall clock or fills RunStats. The timed region is the kernel
// alone (DESIGN.md §2.3): an engine builds its inputs in the layout it asks
// for — transpose, out-degrees, matrices, tables, parsed rules — before the
// call, and converts what the kernel left into the core.*Result arrays after
// it. The pool is up and traced before the clock starts and closed when
// Local returns, so nothing the kernel holds on it may outlive the call.
// kernel returns the iterations it ran. A simulated-cluster call may borrow
// its pool here too, for every node's evaluation; it then reports
// SimulatedStats, not the measured time Local returns.
func (e Exec) Local(kernel func(pool *par.Pool, tr *trace.Tracer) (iterations int)) RunStats {
	tr := e.Tracer()
	pool := par.NewPool(0)
	defer pool.Close()
	pool.SetRegistry(tr.Registry())
	start := time.Now()
	iterations := kernel(pool, tr)
	return RunStats{WallSeconds: time.Since(start).Seconds(), Iterations: iterations}
}

// ErrSingleNodeOnly is returned by engines (Galois) that have no
// multi-node implementation, matching the paper's Table 2.
var ErrSingleNodeOnly = errors.New("engine runs on a single node only")

// ErrUnsupported is returned when a programming model cannot express the
// requested computation (e.g. SGD outside native/Galois, paper §3.2).
var ErrUnsupported = errors.New("operation not expressible in this engine's programming model")

// RunStats describes how a run went. For single-node runs WallSeconds is
// measured host time; for cluster runs it is the simulation's modeled time
// and Report carries the system metrics.
type RunStats struct {
	WallSeconds float64
	Simulated   bool
	Iterations  int
	Report      metrics.Report
}

// SimulatedStats packages a finished cluster run: the modeled time is the
// wall clock and the report carries the system metrics.
func SimulatedStats(c *cluster.Cluster, iterations int) RunStats {
	rep := c.Report()
	return RunStats{WallSeconds: rep.SimulatedSeconds, Simulated: true, Iterations: iterations, Report: rep}
}

// PageRankOptions configures PageRank. The paper's formulation (eq. 1):
//
//	PR'(i) = r + (1-r) · Σ_{j→i} PR(j)/outdeg(j)
//
// with r the random-jump probability (the paper uses 0.3) and unnormalized
// ranks initialized to 1.
//
// Every engine runs exactly Iterations iterations: implementations differ
// on convergence detection, so the paper compares time per iteration
// (§5.2). Early stopping is not an engine option; it lives on the tol
// argument of native.PageRank, PageRankInto and WarmPageRank, which the
// service and the streaming experiment call directly.
type PageRankOptions struct {
	// RandomJump is r in the paper's equation (default 0.3).
	RandomJump float64
	// Iterations is the fixed iteration count (default 10).
	Iterations int
	Exec       Exec
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.RandomJump == 0 {
		o.RandomJump = 0.3
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	return o
}

// Validate reports the first problem with the options.
func (o PageRankOptions) Validate() error {
	if !(o.RandomJump >= 0 && o.RandomJump < 1) { // NaN fails it
		return fmt.Errorf("core: random jump %v outside [0,1)", o.RandomJump)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("core: negative iteration count %d", o.Iterations)
	}
	return nil
}

// PageRankResult carries the final (unnormalized) ranks.
type PageRankResult struct {
	Ranks []float64
	Stats RunStats
}

// BFSOptions configures breadth-first search from Source over an
// undirected (symmetrized) graph.
type BFSOptions struct {
	Source uint32
	Exec   Exec
}

// BFSResult carries hop distances; unreachable vertices hold -1.
type BFSResult struct {
	Distances []int32
	Stats     RunStats
}

// TriangleOptions configures triangle counting. The input graph must be
// acyclically oriented (every edge small id → large id) with sorted
// adjacency, the preparation the paper applies to all frameworks (§4.1.2).
type TriangleOptions struct {
	Exec Exec
}

// TriangleResult carries the global triangle count.
type TriangleResult struct {
	Count int64
	Stats RunStats
}

// CFMethod selects the matrix-factorization optimizer.
type CFMethod int

const (
	// GradientDescent updates all factors once per iteration from
	// aggregated gradients — expressible in every framework (paper §3.2).
	GradientDescent CFMethod = iota
	// SGD processes ratings one at a time in random order. Only native and
	// Galois can express it (paper §3.2).
	SGD
)

func (m CFMethod) String() string {
	if m == SGD {
		return "sgd"
	}
	return "gd"
}

// CFOptions configures collaborative filtering (incomplete matrix
// factorization with regularization, paper eq. 4).
type CFOptions struct {
	Method CFMethod
	// K is the latent dimension (paper's message sizing implies K≈128; we
	// default to 16 at laptop scale).
	K int
	// Iterations of the optimizer (default 5).
	Iterations int
	// LearningRate is γ0; StepDecay is s in γt = γ0·s^t (defaults 0.002
	// and 0.99 for SGD; GD uses a smaller default rate).
	LearningRate float64
	StepDecay    float64
	// LambdaP and LambdaQ are the regularization weights (default 0.05).
	LambdaP, LambdaQ float64
	// Seed drives factor initialization and SGD shuffling.
	Seed int64
	// SkipRMSETrajectory suppresses the per-iteration RMSE evaluation
	// (an O(E·K) pass per iteration that is measurement noise, not
	// algorithm work); only the final RMSE is reported. The paper's
	// per-iteration timings exclude convergence evaluation.
	SkipRMSETrajectory bool
	Exec               Exec
}

func (o CFOptions) withDefaults() CFOptions {
	if o.K == 0 {
		o.K = 16
	}
	if o.Iterations == 0 {
		o.Iterations = 5
	}
	if o.LearningRate == 0 {
		if o.Method == SGD {
			o.LearningRate = 0.002
		} else {
			o.LearningRate = 0.0005
		}
	}
	if o.StepDecay == 0 {
		o.StepDecay = 0.99
	}
	if o.LambdaP == 0 {
		o.LambdaP = 0.05
	}
	if o.LambdaQ == 0 {
		o.LambdaQ = 0.05
	}
	return o
}

// Validate reports the first problem with the options.
func (o CFOptions) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("core: negative latent dimension %d", o.K)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("core: negative iteration count %d", o.Iterations)
	}
	// Each float check is written so NaN fails it.
	if !(finiteNonNegative(o.LearningRate) && o.StepDecay >= 0 && o.StepDecay <= 1) {
		return fmt.Errorf("core: bad step schedule γ0=%v s=%v", o.LearningRate, o.StepDecay)
	}
	if !(finiteNonNegative(o.LambdaP) && finiteNonNegative(o.LambdaQ)) {
		return fmt.Errorf("core: bad regularization λP=%v λQ=%v", o.LambdaP, o.LambdaQ)
	}
	return nil
}

// finiteNonNegative reports 0 ≤ x < +Inf; NaN fails it.
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// CFResult carries the learned factors (flat, K values per vertex) and the
// training-RMSE trajectory, one entry per iteration.
type CFResult struct {
	K           int
	UserFactors []float32 // NumUsers × K
	ItemFactors []float32 // NumItems × K
	RMSE        []float64
	Stats       RunStats
}

// Capabilities describes what an engine can do (paper Table 2).
type Capabilities struct {
	// MultiNode reports whether the engine has a distributed
	// implementation.
	MultiNode bool
	// SGD reports whether the programming model can express stochastic
	// gradient descent (needs flexible partitioning and immediate global
	// visibility of updates).
	SGD bool
	// ProgrammingModel is a short label: "native", "vertex", "sparse
	// matrix", "datalog", "task".
	ProgrammingModel string
}

// Engine is a graph-analytics framework under study.
type Engine interface {
	// Name is the framework's display name, matching the paper's tables.
	Name() string
	Capabilities() Capabilities

	PageRank(g *graph.CSR, opt PageRankOptions) (*PageRankResult, error)
	BFS(g *graph.CSR, opt BFSOptions) (*BFSResult, error)
	TriangleCount(g *graph.CSR, opt TriangleOptions) (*TriangleResult, error)
	CollabFilter(r *graph.Bipartite, opt CFOptions) (*CFResult, error)
}

// CheckPageRankInput validates common PageRank preconditions.
func CheckPageRankInput(g *graph.CSR, opt PageRankOptions) (PageRankOptions, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	if g == nil {
		return opt, errors.New("core: nil graph")
	}
	return opt, nil
}

// CheckBFSInput validates common BFS preconditions.
func CheckBFSInput(g *graph.CSR, opt BFSOptions) (BFSOptions, error) {
	if g == nil {
		return opt, errors.New("core: nil graph")
	}
	if opt.Source >= g.NumVertices {
		return opt, fmt.Errorf("core: BFS source %d outside [0,%d)", opt.Source, g.NumVertices)
	}
	return opt, nil
}

// CheckTriangleInput validates common triangle-counting preconditions.
func CheckTriangleInput(g *graph.CSR, opt TriangleOptions) (TriangleOptions, error) {
	if g == nil {
		return opt, errors.New("core: nil graph")
	}
	if !g.SortedAdjacency() {
		return opt, errors.New("core: triangle counting requires sorted adjacency (build with SortAdjacency)")
	}
	return opt, nil
}

// CheckCFInput validates common collaborative-filtering preconditions.
func CheckCFInput(r *graph.Bipartite, opt CFOptions) (CFOptions, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	if r == nil || r.ByUser == nil || r.ByItem == nil {
		return opt, errors.New("core: nil rating graph")
	}
	return opt, nil
}

// InitFactors deterministically initializes n×k latent factors in
// [0, 1/√k), the conventional non-negative warm start. Every engine uses
// this so cross-engine RMSE trajectories are comparable.
func InitFactors(n uint32, k int, seed int64) []float32 {
	f := make([]float32, int(n)*k)
	state := uint64(seed)*2862933555777941757 + 3037000493
	scale := float32(1) / float32(k)
	for i := range f {
		// xorshift64* keeps initialization free of math/rand allocation.
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		u := float32(state>>40) / float32(1<<24)
		f[i] = u * scale
	}
	return f
}

// Dot returns the inner product of two K-length factor rows.
func Dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// RMSE computes the root-mean-square training error of factor matrices
// over the rating graph.
func RMSE(r *graph.Bipartite, k int, userF, itemF []float32) float64 {
	var sum float64
	var n int64
	for u := uint32(0); u < r.NumUsers; u++ {
		adj, w := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
		pu := userF[int(u)*k : int(u+1)*k]
		for i, v := range adj {
			qv := itemF[int(v)*k : int(v+1)*k]
			e := float64(w[i]) - Dot(pu, qv)
			sum += e * e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// BlockEdge is one rating inside a (user-stripe, item-stripe) block.
type BlockEdge struct {
	U, V   uint32
	Rating float32
}

// BuildBlocks groups ratings into a W×W grid of blocks over contiguous
// user and item stripes — Gemulla's partitioning (paper §3.2): blocks on
// the same diagonal touch disjoint users and items, so they update without
// locks. Block su·w+sv holds stripe su's users' ratings of stripe sv's
// items, in ascending user order.
func BuildBlocks(r *graph.Bipartite, w int) (blocks [][]BlockEdge, userStripe, itemStripe []uint32) {
	userStripe = stripeBounds(r.NumUsers, w)
	itemStripe = stripeBounds(r.NumItems, w)
	blocks = make([][]BlockEdge, w*w)
	for u := uint32(0); u < r.NumUsers; u++ {
		su := stripeOf(userStripe, u)
		adj, wts := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
		for i, v := range adj {
			idx := su*w + stripeOf(itemStripe, v)
			blocks[idx] = append(blocks[idx], BlockEdge{U: u, V: v, Rating: wts[i]})
		}
	}
	return blocks, userStripe, itemStripe
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

// ShuffleBlocks pre-shuffles each block once with a deterministic seed:
// SGD requires random visit order within a block.
func ShuffleBlocks(blocks [][]BlockEdge, seed int64) {
	for i := range blocks {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		rng.Shuffle(len(blocks[i]), func(a, b int) {
			blocks[i][a], blocks[i][b] = blocks[i][b], blocks[i][a]
		})
	}
}

// NumStripes picks the single-node grid width W: enough for parallelism
// without making blocks degenerate on small inputs.
func NumStripes(r *graph.Bipartite) int {
	w := 8
	for uint32(w) > r.NumUsers || uint32(w) > r.NumItems {
		w /= 2
	}
	return max(w, 1)
}

// DiagonalSweep returns one pass over the W×W grid, one diagonal at a
// time: W sub-steps, sub-step d handing the W blocks su·w + (su+d) mod W
// — disjoint users, disjoint items — to the pool side by side, each
// worker a contiguous run of them, visit running each block serially.
func DiagonalSweep(pool *par.Pool, w int, visit func(block int)) func() {
	sub := 0
	diagonal := backend.NewDense(pool, w, func(lo, hi int) {
		for stripe := lo; stripe < hi; stripe++ {
			visit(stripe*w + (stripe+sub)%w)
		}
	})
	return func() {
		for sub = 0; sub < w; sub++ {
			diagonal.Run()
		}
	}
}

// SGDBlock applies the paper's update equations (5)–(8) to every rating
// in the block, in its stored order.
func SGDBlock(block []BlockEdge, userF, itemF []float32, k int, gamma float64, opt CFOptions) {
	for _, edge := range block {
		pu := userF[int(edge.U)*k : int(edge.U+1)*k]
		qv := itemF[int(edge.V)*k : int(edge.V+1)*k]
		euv := float64(edge.Rating) - Dot(pu, qv)
		for d := 0; d < k; d++ {
			pud, qvd := float64(pu[d]), float64(qv[d])
			pu[d] = float32(pud + gamma*(euv*qvd-opt.LambdaP*pud))
			qv[d] = float32(qvd + gamma*(euv*pud-opt.LambdaQ*qvd))
		}
	}
}

// TrainSGD runs diagonal-parallel SGD over the NumStripes(r)-wide grid of
// shuffled blocks on the call's pool — Native's single-node SGD and
// Galois's, one code. It updates the factors in place and returns the
// per-iteration RMSE trajectory (empty when skipped).
func TrainSGD(pool *par.Pool, r *graph.Bipartite, opt CFOptions, blocks [][]BlockEdge, userF, itemF []float32) []float64 {
	rmse := make([]float64, 0, opt.Iterations)
	gamma := opt.LearningRate
	pass := DiagonalSweep(pool, NumStripes(r), func(b int) { SGDBlock(blocks[b], userF, itemF, opt.K, gamma, opt) })
	for it := 0; it < opt.Iterations; it++ {
		pass()
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, RMSE(r, opt.K, userF, itemF))
		}
	}
	return rmse
}
