// Package combblas reimplements the Combinatorial BLAS programming model
// (paper §3): graphs are sparse matrices, algorithms are compositions of
// SpMV / SpGEMM / element-wise operations over user-defined semirings, and
// the distribution is a 2-D block decomposition over a perfect-square
// process grid driven by MPI.
package combblas

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// SpMat is a sparse matrix in CSR layout with generic nonzero values.
// Rows index the first matrix dimension; Cols holds the column of each
// nonzero.
type SpMat[T any] struct {
	NumRows, NumCols uint32
	Offsets          []int64
	Cols             []uint32
	Vals             []T
}

// NNZ reports the number of stored nonzeros.
func (m *SpMat[T]) NNZ() int64 { return int64(len(m.Cols)) }

// Row returns row r's column indices and values (aliases the matrix).
func (m *SpMat[T]) Row(r uint32) ([]uint32, []T) {
	lo, hi := m.Offsets[r], m.Offsets[r+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// MemoryBytes estimates the resident size given bytesPerVal for T.
func (m *SpMat[T]) MemoryBytes(bytesPerVal int64) int64 {
	return int64(len(m.Offsets))*8 + int64(len(m.Cols))*4 + m.NNZ()*bytesPerVal
}

// FromGraph builds a pattern matrix (struct{} values) from a CSR graph:
// A[src,dst] = 1 for every edge.
func FromGraph(g *graph.CSR) *SpMat[struct{}] {
	return &SpMat[struct{}]{
		NumRows: g.NumVertices,
		NumCols: g.TargetSpace(),
		Offsets: g.Offsets,
		Cols:    g.Targets,
		Vals:    make([]struct{}, len(g.Targets)),
	}
}

// FromWeightedGraph builds a float32-valued matrix from a weighted CSR.
func FromWeightedGraph(g *graph.CSR) (*SpMat[float32], error) {
	if !g.Weighted() {
		return nil, fmt.Errorf("combblas: graph has no weights")
	}
	return &SpMat[float32]{
		NumRows: g.NumVertices,
		NumCols: g.TargetSpace(),
		Offsets: g.Offsets,
		Cols:    g.Targets,
		Vals:    g.Weights,
	}, nil
}

// Transpose returns the matrix with rows and columns exchanged.
func (m *SpMat[T]) Transpose() *SpMat[T] {
	offsets := make([]int64, m.NumCols+1)
	for _, c := range m.Cols {
		offsets[c+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	cols := make([]uint32, len(m.Cols))
	vals := make([]T, len(m.Vals))
	cursor := make([]int64, m.NumCols)
	for r := uint32(0); r < m.NumRows; r++ {
		lo, hi := m.Offsets[r], m.Offsets[r+1]
		for i := lo; i < hi; i++ {
			c := m.Cols[i]
			pos := offsets[c] + cursor[c]
			cols[pos] = r
			vals[pos] = m.Vals[i]
			cursor[c]++
		}
	}
	return &SpMat[T]{NumRows: m.NumCols, NumCols: m.NumRows, Offsets: offsets, Cols: cols, Vals: vals}
}

// Semiring defines the ⊗/⊕ pair for SpMV-style operations: Mul combines a
// nonzero with a vector element, Add accumulates, Zero is the additive
// identity.
type Semiring[A, X, Y any] struct {
	Mul  func(a A, x X) Y
	Add  func(p, q Y) Y
	Zero func() Y
}

// PlusTimesF64 is the arithmetic semiring over float64 with pattern
// nonzeros.
func PlusTimesF64() Semiring[struct{}, float64, float64] {
	return Semiring[struct{}, float64, float64]{
		Mul:  func(_ struct{}, x float64) float64 { return x },
		Add:  func(p, q float64) float64 { return p + q },
		Zero: func() float64 { return 0 },
	}
}

// backendView wraps the matrix's CSR arrays as a backend pattern matrix
// (no copy) so the engine's kernels run on the shared backend.
func backendView[A any](m *SpMat[A]) *backend.Matrix {
	return &backend.Matrix{NumRows: m.NumRows, Offsets: m.Offsets, Cols: m.Cols}
}

// spgemmGrain is the dynamic chunk size for the row loops of SpGEMM and
// EWiseMultSum.
const spgemmGrain = 128

// rowAccumulator is one worker's sparse accumulator for Gustavson's row
// product: a dense path count per column of a window of B, a two-level bitmap
// over the window — one mark bit per column, one summary bit per 64-column
// mark word — and the number of columns the current row has touched. A path
// count is at least 1, so zero stands for "untouched", and emitting a row
// clears exactly the counts, mark words and summary words it set: a row costs
// O(touched) plus one summary word per 4096 columns of its span, never
// O(window), however wide an earlier hub row was. Emitted rows collect in
// cols/vals until the owner truncates them, so a worker's output buffers are
// reused as well.
//
// Rows leave in column order because the model materialises A² as sorted
// CSR; what that costs CombBLAS is the resident product and the second pass
// over it, not a comparison sort. The summary bits lead emission to the mark
// words that hold a touched column, so the row is read off the bitmap in
// order without scanning the empty words between them.
type rowAccumulator struct {
	count   []int64
	mark    []uint64
	summary []uint64
	cols    []uint32
	vals    []int64
}

func newRowAccumulator(width uint32) *rowAccumulator {
	words := (width + 63) / 64
	return &rowAccumulator{count: make([]int64, width), mark: make([]uint64, words), summary: make([]uint64, (words+63)/64)}
}

// appendRow appends one row of A·B — aCols is the row of A, the product is
// restricted to B's columns in [clo, chi), the window the accumulator spans
// — to cols/vals as sorted columns with their path counts, and leaves the
// counts and both bitmap levels clean for the next row. It is the one
// Gustavson row in the package: SpGEMM passes every column, a grid node its
// block's. count, mark and summary index columns relative to clo.
func (s *rowAccumulator) appendRow(aCols []uint32, b *SpMat[struct{}], clo, chi uint32) {
	whole := clo == 0 && chi >= b.NumCols
	count, mark, summary := s.count, s.mark, s.summary
	touched := 0
	first, last := ^uint32(0), uint32(0) // summary words
	for _, j := range aCols {
		bCols, _ := b.Row(j)
		if !whole {
			lo, _ := slices.BinarySearch(bCols, clo)
			hi, _ := slices.BinarySearch(bCols, chi)
			bCols = bCols[lo:hi]
		}
		for _, k := range bCols {
			x := k - clo
			if count[x] == 0 {
				touched++
				mark[x>>6] |= 1 << (x & 63)
				summary[x>>12] |= 1 << (x >> 6 & 63)
				first, last = min(first, x>>12), max(last, x>>12)
			}
			count[x]++
		}
	}
	if touched == 0 {
		return
	}
	n := len(s.cols)
	s.cols, s.vals = slices.Grow(s.cols, touched)[:n+touched], slices.Grow(s.vals, touched)[:n+touched]
	cols, vals := s.cols[n:], s.vals[n:]
	i := 0
	for sw := int(first); sw <= int(last); sw++ {
		for sword := summary[sw]; sword != 0; sword &= sword - 1 {
			w := sw<<6 + bits.TrailingZeros64(sword)
			for word := mark[w]; word != 0; word &= word - 1 {
				x := uint32(w<<6 + bits.TrailingZeros64(word))
				cols[i], vals[i] = x+clo, count[x]
				count[x] = 0
				i++
			}
			mark[w] = 0
		}
		summary[sw] = 0
	}
}

// Product is A² as SpGEMM leaves it: a CSR matrix held as the row blocks its
// workers emitted. Offsets are global, as in SpMat; block k holds rows
// [k·spgemmGrain, (k+1)·spgemmGrain) in Cols[k]/Vals[k], whose first element
// is the product's element Offsets[k·spgemmGrain].
type Product struct {
	NumRows, NumCols uint32
	Offsets          []int64
	Cols             [][]uint32
	Vals             [][]int64
}

// NNZ reports the number of stored nonzeros.
func (m *Product) NNZ() int64 { return m.Offsets[m.NumRows] }

// Row returns row r's column indices and values (aliases the matrix).
func (m *Product) Row(r uint32) ([]uint32, []int64) {
	k := r / spgemmGrain
	base := m.Offsets[k*spgemmGrain]
	lo, hi := m.Offsets[r]-base, m.Offsets[r+1]-base
	return m.Cols[k][lo:hi], m.Vals[k][lo:hi]
}

// SpGEMM computes C = A·B over the counting semiring (values are the
// number of combined paths, the quantity triangle counting needs from A²)
// with Gustavson's row-by-row algorithm, materialising the whole product as
// sorted CSR — the memory-hungry intermediate the paper calls out (§5.2:
// CombBLAS "ran out of memory ... while computing the A² matrix product").
// Rows are claimed in spgemmGrain chunks on the caller's pool. Each worker
// owns one rowAccumulator, reused across the chunks it claims
// (backend.TestSweepScratchExclusive pins that a worker index is never
// shared by two running chunks); a finished chunk is kept as an exact-size
// copy, and that copy is the product's block, so A² is held once. A row is
// folded and emitted by one worker and placed by its row index, so Offsets
// and every row are the same at any pool size.
func SpGEMM(pool *par.Pool, a *SpMat[struct{}], b *SpMat[struct{}]) (*Product, error) {
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("combblas: SpGEMM shape mismatch %d×%d · %d×%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	n := int(a.NumRows)
	blocks := (n + spgemmGrain - 1) / spgemmGrain
	c := &Product{NumRows: a.NumRows, NumCols: b.NumCols, Offsets: make([]int64, n+1),
		Cols: make([][]uint32, blocks), Vals: make([][]int64, blocks)}
	// Per-row cost is the sum of B-row lengths over the row's nonzeros —
	// unpredictable from A's structure alone — so rows are claimed
	// dynamically.
	accs := make([]*rowAccumulator, pool.Workers())
	backend.NewSweep(pool, n, spgemmGrain, func(worker, lo, hi int) {
		if accs[worker] == nil {
			accs[worker] = newRowAccumulator(b.NumCols)
		}
		acc := accs[worker]
		acc.cols, acc.vals = acc.cols[:0], acc.vals[:0]
		for r := lo; r < hi; r++ {
			aCols, _ := a.Row(uint32(r))
			before := len(acc.cols)
			acc.appendRow(aCols, b, 0, b.NumCols)
			c.Offsets[r+1] = int64(len(acc.cols) - before) // the row's length, until the prefix sum
		}
		if len(acc.cols) > 0 { // an empty chunk's block stays nil, whichever worker ran it
			c.Cols[lo/spgemmGrain], c.Vals[lo/spgemmGrain] = slices.Clone(acc.cols), slices.Clone(acc.vals)
		}
	}).Run()
	for r := 0; r < n; r++ {
		c.Offsets[r+1] += c.Offsets[r]
	}
	return c, nil
}

// EWiseMultSum returns Σ over positions present in both pattern matrix a
// and value matrix b of b's value — nnz(A ∩ A²) weighted, the triangle
// count reduction. Both matrices must share shape and have sorted columns.
// Chunks of rows are claimed on the caller's pool and each folds its partial
// sum into the total with one atomic add (integer addition is exact, so the
// sum is the same at any pool size).
func EWiseMultSum(pool *par.Pool, a *SpMat[struct{}], b *Product) (int64, error) {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols {
		return 0, fmt.Errorf("combblas: EWiseMult shape mismatch")
	}
	var total atomic.Int64
	backend.NewSweep(pool, int(a.NumRows), spgemmGrain, func(_, lo, hi int) {
		var sum int64
		for r := lo; r < hi; r++ {
			aCols, _ := a.Row(uint32(r))
			bCols, bVals := b.Row(uint32(r))
			i, j := 0, 0
			for i < len(aCols) && j < len(bCols) {
				switch {
				case aCols[i] < bCols[j]:
					i++
				case aCols[i] > bCols[j]:
					j++
				default:
					sum += bVals[j]
					i++
					j++
				}
			}
		}
		total.Add(sum)
	}).Run()
	return total.Load(), nil
}

// Reduce folds every row of the matrix to a scalar with the semiring's ⊕
// over ⊗-mapped nonzeros — CombBLAS's row-wise Reduce primitive. The
// engine's PageRank derives the degree vector with it once per input,
// outside the timed kernel, so it is a serial row loop.
func Reduce[A, X, Y any](m *SpMat[A], x X, sr Semiring[A, X, Y]) []Y {
	out := make([]Y, m.NumRows)
	for r := range out {
		acc := sr.Zero()
		_, vals := m.Row(uint32(r))
		for i := range vals {
			acc = sr.Add(acc, sr.Mul(vals[i], x))
		}
		out[r] = acc
	}
	return out
}
