package backend

import (
	"math"
	"math/bits"

	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// SumVecMul is the backend's one pooled SpMV kernel: the plus-times
// pattern product y[r] = a + b·Σ_{c ∈ row r} x[c] that PageRank-shaped
// computations lower onto. Rows are statically split at construction so
// every worker owns an equal share of nonzeros (graph.OffsetSplits on the
// CSR prefix sums, rounded to 64-row word edges); each output element is
// written by exactly one worker, which is the "padded accumulation lane"
// scheme degenerated to its cheapest form — the output vector itself is
// the lane, and the deterministic merge is the fixed row ownership plus
// the serial in-row fold. The inner loop is a plain running sum, with no
// semiring indirection, which is what keeps lowered engines within the
// native performance envelope.
//
// A kernel is built for the matrix of the epoch it reads; steady-state
// calls perform no allocation: construct once per algorithm run, call
// AffineInto/AddInto once per iteration.
type SumVecMul struct {
	pool   *par.Pool
	m      *Matrix
	occ    []uint64
	bounds []int
	nnz    *obs.Counter

	// The operands of the call in flight (RunChunk reads them).
	x, y   []float64
	a, b   float64
	seeded bool
	post   func(uint32, float64) float64
}

// NewSumVecMul builds the kernel for the pattern matrix m, reusing m's
// occupancy words when WithOccupancy built them.
func NewSumVecMul(pool *par.Pool, m *Matrix) *SumVecMul {
	occ := m.occ
	if occ == nil {
		occ = occupancy(m.Offsets)
	}
	bounds := graph.OffsetSplits(m.Offsets, pool.Workers())
	n := int(m.NumRows)
	for i := 1; i < len(bounds)-1; i++ {
		bounds[i] = min((bounds[i]+32)&^63, n)
	}
	return &SumVecMul{pool: pool, m: m, occ: occ, bounds: bounds}
}

// WithTracer attaches a backend.spmv.nnz counter (nil tracer detaches).
func (k *SumVecMul) WithTracer(tr *trace.Tracer) *SumVecMul {
	k.nnz = tr.Registry().Counter("backend.spmv.nnz")
	return k
}

// AffineInto computes y[r] = a + b·Σ x[c], the shape of every PageRank
// finish: jump + Σ, or r + (1−r)·Σ.
func (k *SumVecMul) AffineInto(y, x []float64, a, b float64) {
	k.run(y, x, a, b, false, nil)
}

// MapInto computes y[r] = post(r, Σ x[c]); nil post stores the raw sum.
// It is the affine fold with (a, b) = (0, 1), which stores Σ unchanged
// (a fold seeded with +0 never yields −0), followed by post over the
// chunk's rows while they are still in cache.
func (k *SumVecMul) MapInto(y, x []float64, post func(uint32, float64) float64) {
	k.run(y, x, 0, 1, false, post)
}

// AddInto computes y[r] = y[r] + Σ x[c]: the accumulate form y ← y ⊕ A·x.
// Each row's fold starts from the value y already holds and then runs left
// to right in stored-column order, which is the order a tuple-at-a-time
// evaluator folds a seeded aggregate in (DESIGN.md §12, socialite). The
// epilogue is (a, b) = (−0, 1): −0 + s is s for every s, −0 included.
// Empty rows keep what they hold.
func (k *SumVecMul) AddInto(y, x []float64) {
	k.run(y, x, math.Copysign(0, -1), 1, true, nil)
}

func (k *SumVecMul) run(y, x []float64, a, b float64, seeded bool, post func(uint32, float64) float64) {
	k.x, k.y, k.a, k.b, k.seeded, k.post = x, y, a, b, seeded, post
	k.pool.RunStatic(k, k.bounds)
	k.x, k.y, k.post = nil, nil, nil
	k.nnz.Add(k.m.NNZ())
}

// RunChunk implements par.Runner: it folds the occupied rows of [lo, hi)
// one at a time, each strictly left to right in stored-column order. lo
// is a word edge, so the chunk walks whole occupancy words: set bits are
// the rows the inner loop visits, and without a seed the clear bits are
// written a + b·0 without entering it. On the served graphs a third to a half of all rows are
// empty, so a row loop that tested each row's length mispredicted its exit
// on a large share of rows (DESIGN.md §12). The operands are copied into
// locals first: the stores to y could alias anything reachable through k,
// so a loop written against k.m.Offsets[r+1] and k.m.Cols[i] reloads both
// slice headers and re-checks both bounds on every edge; ranging over the
// row's sub-slice leaves one bounds check (the gather into x) per edge.
// Interleaving two or four adjacent rows on top of this loop was measured
// and lost to it (DESIGN.md §12).
func (k *SumVecMul) RunChunk(worker, lo, hi int) {
	off, cols, occ, x, y := k.m.Offsets, k.m.Cols, k.occ, k.x, k.y
	a, b, seeded := k.a, k.b, k.seeded
	empty := a + b*0
	for base := lo; base < hi; base += 64 {
		word := occ[base>>6]
		if !seeded {
			gaps := ^word
			if span := hi - base; span < 64 {
				gaps &= 1<<uint(span) - 1
			}
			for ; gaps != 0; gaps &= gaps - 1 {
				y[base+bits.TrailingZeros64(gaps)] = empty
			}
		}
		for ; word != 0; word &= word - 1 {
			r := base + bits.TrailingZeros64(word)
			sum := 0.0
			if seeded {
				sum = y[r]
			}
			for _, c := range cols[off[r]:off[r+1]] {
				sum += x[c]
			}
			y[r] = a + b*sum
		}
	}
	if post := k.post; post != nil {
		for r := lo; r < hi; r++ {
			y[r] = post(uint32(r), y[r])
		}
	}
}

// occupancy returns the row-occupancy words of a CSR prefix-sum array:
// bit r%64 of word r/64 is set iff row r stores an entry. The bit is the
// sign of off[r] − off[r+1], so the build has no branch; bits past the
// last row stay clear.
func occupancy(off []int64) []uint64 {
	n := max(len(off)-1, 0)
	occ := make([]uint64, (n+63)/64)
	for r := 0; r < n; r++ {
		occ[r>>6] |= uint64(off[r]-off[r+1]) >> 63 << (r & 63)
	}
	return occ
}

// DivDegree returns x/d for a vertex of out-degree d > 0 and +0 for d = 0
// — a PageRank contribution — without a branch: has is −1 when d > 0 and
// 0 otherwise, so the divisor d+1+has is d or 1 and ANDing the quotient's
// bits with has keeps it or clears it. A third to a half of the served
// graphs' vertices have no out-edges, so a contribution pass that
// branched on d mispredicted on a large share of them (DESIGN.md §12).
func DivDegree(x float64, d int64) float64 {
	has := -d >> 63
	return math.Float64frombits(math.Float64bits(x/float64(d+1+has)) & uint64(has))
}

// PageRankSweep is the one PageRank iteration every engine lowers onto
// (DESIGN.md §12): a dense contribution pass contrib[v] =
// DivDegree(s·src[v], deg[v]) — one streaming store per vertex, so the
// gather does a single random load per edge instead of two dependent ones
// plus a divide — then the affine SpMV dst = a + b·Aᵀcontrib over the
// in-edge matrix. Native runs it as (s, a, b) = (1−r, r, 1), the lowered
// engines as (1, r, 1−r), their vertex programs' arithmetic: the IEEE
// product 1·x is x, so each form is bit-identical to the loop it replaced.
// dst may alias src, since the contribution pass has read all of src
// before the SpMV writes dst. Per-vertex expressions and the ascending
// in-neighbour fold order are fixed, so the result is bit-identical at any
// worker count; steady-state calls do not allocate.
type PageRankSweep struct {
	mul     *SumVecMul
	pass    *Dense
	contrib []float64
	a, b    float64
	src     []float64 // the operand of the call in flight
}

// NewPageRankSweep builds the sweep over the in-edge matrix in, with the
// out-degrees deg and a contribution buffer of in.NumRows elements, which
// every Run overwrites.
func NewPageRankSweep(pool *par.Pool, in *Matrix, deg []int64, s, a, b float64, contrib []float64) *PageRankSweep {
	p := &PageRankSweep{mul: NewSumVecMul(pool, in), contrib: contrib, a: a, b: b}
	p.pass = NewDense(pool, len(contrib), func(lo, hi int) {
		src := p.src
		for v := lo; v < hi; v++ {
			contrib[v] = DivDegree(s*src[v], deg[v])
		}
	})
	return p
}

// WithTracer attaches the SpMV's backend.spmv.nnz counter (nil tracer
// detaches).
func (p *PageRankSweep) WithTracer(tr *trace.Tracer) *PageRankSweep {
	p.mul.WithTracer(tr)
	return p
}

// Run computes one sweep from the ranks in src into dst.
func (p *PageRankSweep) Run(dst, src []float64) {
	p.src = src
	p.pass.Run()
	p.src = nil
	p.mul.AffineInto(dst, p.contrib, p.a, p.b)
}

// Dense is a reusable element-wise pass over [0, n): the vector-transform
// half of a lowered iteration (contribution scaling, normalization).
// The body closure is built once and reads its operands through captured
// variables, so per-iteration calls do not allocate. Ranges are an even
// static split; the body must write only indexes in [lo, hi).
type Dense struct {
	pool   *par.Pool
	bounds []int
	body   func(lo, hi int)
}

// NewDense builds a reusable element-wise kernel over [0, n).
func NewDense(pool *par.Pool, n int, body func(lo, hi int)) *Dense {
	return &Dense{pool: pool, bounds: par.EvenSplits(n, pool.Workers()), body: body}
}

// Run executes one pass.
func (d *Dense) Run() { d.pool.RunStatic(d, d.bounds) }

// RunChunk implements par.Runner.
func (d *Dense) RunChunk(worker, lo, hi int) { d.body(lo, hi) }

// Sweep is Dense's dynamically-scheduled sibling: chunks of [0, n) are
// claimed from an atomic cursor, for passes whose per-element cost is
// skewed (active-set filtered gathers over power-law degree tails). The
// grain is rounded up to a multiple of 64 by the pool, so a body that
// writes vertex-indexed bitsets owns whole words per chunk. The body also
// receives the executing worker's index (below pool.Workers()), for
// kernels that keep per-worker scratch across the many chunks one worker
// claims.
type Sweep struct {
	pool  *par.Pool
	n     int
	grain int
	body  func(worker, lo, hi int)
}

// NewSweep builds a reusable dynamic kernel over [0, n); grain <= 0 uses
// the pool's default.
func NewSweep(pool *par.Pool, n, grain int, body func(worker, lo, hi int)) *Sweep {
	return &Sweep{pool: pool, n: n, grain: grain, body: body}
}

// Run executes one pass; allocation-free after construction.
func (s *Sweep) Run() { s.pool.RunDynamic(s, s.n, s.grain) }

// RunChunk implements par.Runner.
func (s *Sweep) RunChunk(worker, lo, hi int) { s.body(worker, lo, hi) }
