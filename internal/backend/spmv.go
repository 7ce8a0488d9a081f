package backend

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Semiring is the generalized (⊕, ⊗) pair SpMVInto folds with,
// matching the CombBLAS formulation: y[r] = ⊕_{c ∈ row r} vals[rc] ⊗ x[c],
// starting from Zero (called once per row). The fold is strictly
// left-to-right in stored-column order, so results are deterministic even
// for non-associative ⊕ (floating-point addition).
type Semiring[A, X, Y any] struct {
	Mul  func(A, X) Y
	Add  func(Y, Y) Y
	Zero func() Y
}

// SumVecMul is the backend's one pooled SpMV kernel: the plus-times
// pattern product y[r] = Σ_{c ∈ row r} x[c] that PageRank-shaped
// computations lower onto. Rows are statically split at construction so
// every worker owns an equal share of nonzeros (par.OffsetSplits on the
// CSR prefix sums); each output element is written by exactly one worker,
// which is the "padded accumulation lane" scheme degenerated to its
// cheapest form — the output vector itself is the lane, and the
// deterministic merge is the fixed row ownership plus the serial in-row
// fold. The inner loop is a plain running sum, with no semiring
// indirection, which is what keeps lowered engines within the native
// performance envelope.
//
// A kernel is built for the matrix of the epoch it reads; steady-state
// calls perform no allocation: construct once per algorithm run, call
// MapInto/AddInto once per iteration.
type SumVecMul struct {
	pool   *Pool
	m      *Matrix
	bounds []int
	nnz    *obs.Counter

	x    []float64
	y    []float64
	post func(uint32, float64) float64
}

// NewSumVecMul builds the kernel for the pattern matrix m.
func NewSumVecMul(pool *Pool, m *Matrix) *SumVecMul {
	return &SumVecMul{pool: pool, m: m, bounds: par.OffsetSplits(m.Offsets, pool.Workers())}
}

// WithTracer attaches a backend.spmv.nnz counter (nil tracer detaches).
func (k *SumVecMul) WithTracer(tr *trace.Tracer) *SumVecMul {
	k.nnz = tr.Counter("backend.spmv.nnz")
	return k
}

// MapInto computes y[r] = post(r, Σ x[c]); nil post stores the raw sum.
func (k *SumVecMul) MapInto(y, x []float64, post func(uint32, float64) float64) {
	k.x, k.y, k.post = x, y, post
	k.pool.RunStatic(k, k.bounds)
	k.x, k.y, k.post = nil, nil, nil
	k.nnz.Add(0, k.m.NNZ())
}

// runChunk folds rows [lo, hi) one at a time, each strictly left to right
// in stored-column order. The operands are copied into locals first: the
// stores to y could alias anything reachable through k, so a loop written
// against k.m.Offsets[r+1] and k.m.Cols[i] reloads both slice headers and
// re-checks both bounds on every edge; ranging over the row's sub-slice
// leaves one bounds check (the gather into x) per edge. Interleaving two
// or four adjacent rows on top of this loop was measured and lost to it
// (DESIGN.md §12).
func (k *SumVecMul) runChunk(worker, lo, hi int) {
	off, cols, x, y, post := k.m.Offsets, k.m.Cols, k.x, k.y, k.post
	for r := lo; r < hi; r++ {
		sum := 0.0
		for _, c := range cols[off[r]:off[r+1]] {
			sum += x[c]
		}
		if post != nil {
			sum = post(uint32(r), sum)
		}
		y[r] = sum
	}
}

// AddInto computes y[r] = y[r] + Σ x[c]: the accumulate form y ← y ⊕ A·x.
// Each row's fold starts from the value y already holds and then runs left
// to right in stored-column order, which is the order a tuple-at-a-time
// evaluator folds a seeded aggregate in (DESIGN.md §12, socialite).
func (k *SumVecMul) AddInto(y, x []float64) {
	k.x, k.y = x, y
	k.pool.RunStatic((*sumAccumulate)(k), k.bounds)
	k.x, k.y = nil, nil
	k.nnz.Add(0, k.m.NNZ())
}

// sumAccumulate is SumVecMul seen as AddInto's runner: the seeded fold is
// a loop of its own so that MapInto's stays the one PageRank was tuned on.
type sumAccumulate SumVecMul

func (k *sumAccumulate) runChunk(worker, lo, hi int) {
	off, cols, x, y := k.m.Offsets, k.m.Cols, k.x, k.y
	for r := lo; r < hi; r++ {
		sum := y[r]
		for _, c := range cols[off[r]:off[r+1]] {
			sum += x[c]
		}
		y[r] = sum
	}
}

// SpMVInto is the one-shot generic path: y = m ⊕.⊗ x into the
// caller-provided y, with edge-balanced row splits via par.ForOffsets. It
// exists for callers (combblas's free functions) whose API is a single
// call; an engine that runs the product every iteration lowers onto a
// SumVecMul on a Pool instead.
func SpMVInto[A, X, Y any](m *Matrix, vals []A, x []X, y []Y, sr Semiring[A, X, Y]) {
	par.ForOffsets(m.Offsets, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			acc := sr.Zero()
			for i := m.Offsets[r]; i < m.Offsets[r+1]; i++ {
				acc = sr.Add(acc, sr.Mul(vals[i], x[m.Cols[i]]))
			}
			y[r] = acc
		}
	})
}

// Dense is a reusable element-wise pass over [0, n): the vector-transform
// half of a lowered iteration (contribution scaling, normalization).
// The body closure is built once and reads its operands through captured
// variables, so per-iteration calls do not allocate. Ranges are an even
// static split; the body must write only indexes in [lo, hi).
type Dense struct {
	pool   *Pool
	bounds []int
	body   func(lo, hi int)
}

// NewDense builds a reusable element-wise kernel over [0, n).
func NewDense(pool *Pool, n int, body func(lo, hi int)) *Dense {
	return &Dense{pool: pool, bounds: evenSplits(n, pool.Workers()), body: body}
}

// Run executes one pass.
func (d *Dense) Run() { d.pool.RunStatic(d, d.bounds) }

func (d *Dense) runChunk(worker, lo, hi int) { d.body(lo, hi) }

// Sweep is Dense's dynamically-scheduled sibling: chunks of [0, n) are
// claimed from an atomic cursor, for passes whose per-element cost is
// skewed (active-set filtered gathers over power-law degree tails). The
// grain is rounded up to a multiple of 64 by the pool, so a body that
// writes vertex-indexed bitsets owns whole words per chunk. The body also
// receives the executing worker's index (below pool.Workers()), for
// kernels that keep per-worker scratch across the many chunks one worker
// claims.
type Sweep struct {
	pool  *Pool
	n     int
	grain int
	body  func(worker, lo, hi int)
}

// NewSweep builds a reusable dynamic kernel over [0, n); grain <= 0 uses
// the pool's default.
func NewSweep(pool *Pool, n, grain int, body func(worker, lo, hi int)) *Sweep {
	return &Sweep{pool: pool, n: n, grain: grain, body: body}
}

// Run executes one pass; allocation-free after construction.
func (s *Sweep) Run() { s.pool.RunDynamic(s, s.n, s.grain) }

func (s *Sweep) runChunk(worker, lo, hi int) { s.body(worker, lo, hi) }
