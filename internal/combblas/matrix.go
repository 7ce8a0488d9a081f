// Package combblas reimplements the Combinatorial BLAS programming model
// (paper §3): graphs are sparse matrices, algorithms are compositions of
// SpMV / SpGEMM / element-wise operations over user-defined semirings, and
// the distribution is a 2-D block decomposition over a perfect-square
// process grid driven by MPI.
package combblas

import (
	"fmt"
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

// MinPlusI32 is the tropical semiring used for BFS/shortest hops; the
// "infinity" is 1<<30.
func MinPlusI32() Semiring[struct{}, int32, int32] {
	const inf = int32(1) << 30
	return Semiring[struct{}, int32, int32]{
		Mul: func(_ struct{}, x int32) int32 {
			if x >= inf {
				return inf
			}
			return x + 1
		},
		Add: func(p, q int32) int32 {
			if p < q {
				return p
			}
			return q
		},
		Zero: func() int32 { return inf },
	}
}

// OrAndBool is the boolean semiring for reachability frontiers.
func OrAndBool() Semiring[struct{}, bool, bool] {
	return Semiring[struct{}, bool, bool]{
		Mul:  func(_ struct{}, x bool) bool { return x },
		Add:  func(p, q bool) bool { return p || q },
		Zero: func() bool { return false },
	}
}

// PlusTimesWeighted multiplies float32 nonzeros with float64 vector
// entries.
func PlusTimesWeighted() Semiring[float32, float64, float64] {
	return Semiring[float32, float64, float64]{
		Mul:  func(a float32, x float64) float64 { return float64(a) * x },
		Add:  func(p, q float64) float64 { return p + q },
		Zero: func() float64 { return 0 },
	}
}

// backendView wraps the matrix's CSR arrays as a backend pattern matrix
// (no copy) so the SpMV primitives delegate to the shared kernels.
func backendView[A any](m *SpMat[A]) *backend.Matrix {
	return &backend.Matrix{NumRows: m.NumRows, Offsets: m.Offsets, Cols: m.Cols}
}

// SpMVInto computes y[r] = ⊕_c A[r,c] ⊗ x[c] into the caller-provided y,
// delegating the row-wise gather to the shared backend (edge-balanced row
// splits: equal row counts would serialize the hub rows of a power-law
// matrix onto one worker, paper §3.1). Iterative algorithms reuse y
// across calls, so the per-iteration allocation the old SpMV paid is
// gone.
func SpMVInto[A, X, Y any](m *SpMat[A], x []X, y []Y, sr Semiring[A, X, Y]) error {
	if len(x) != int(m.NumCols) {
		return fmt.Errorf("combblas: SpMV vector length %d, matrix has %d columns", len(x), m.NumCols)
	}
	if len(y) != int(m.NumRows) {
		return fmt.Errorf("combblas: SpMV output length %d, matrix has %d rows", len(y), m.NumRows)
	}
	backend.SpMVInto(backendView(m), m.Vals, x, y, backend.Semiring[A, X, Y](sr))
	return nil
}

// SpMV is the allocating convenience wrapper over SpMVInto.
func SpMV[A, X, Y any](m *SpMat[A], x []X, sr Semiring[A, X, Y]) ([]Y, error) {
	if len(x) != int(m.NumCols) {
		return nil, fmt.Errorf("combblas: SpMV vector length %d, matrix has %d columns", len(x), m.NumCols)
	}
	y := make([]Y, m.NumRows)
	if err := SpMVInto(m, x, y, sr); err != nil {
		return nil, err
	}
	return y, nil
}

// SpMSpV computes the boolean product y = xᵀA for a sparse input vector
// (an index list over rows of A), returning the deduplicated index list of
// nonzero outputs — the frontier expansion CombBLAS BFS uses instead of a
// dense SpMV when the frontier is small. The or-and semiring fold reduces
// to exactly the backend's claim-based expansion, so the call delegates
// there (first-encounter order, marks left clean).
func SpMSpV(a *SpMat[struct{}], x []uint32, marks []bool) []uint32 {
	return backend.ExpandInto(backendView(a), x, marks, nil)
}

// spgemmGrain is the dynamic chunk size for the row loops of SpGEMM and
// EWiseMultSum.
const spgemmGrain = 128

// SpGEMM computes C = A·B over the counting semiring (values are the
// number of combined paths, the quantity triangle counting needs from A²)
// using Gustavson's row-by-row algorithm with a dense accumulator — the
// memory-hungry intermediate the paper calls out (§5.2: CombBLAS "ran out
// of memory ... while computing the A² matrix product"). Rows are claimed in
// spgemmGrain chunks on the caller's pool; each row is folded and sorted by
// one worker, so the product's layout is the same at any pool size.
func SpGEMM(pool *backend.Pool, a *SpMat[struct{}], b *SpMat[struct{}]) (*SpMat[int64], error) {
	if a.NumCols != b.NumRows {
		return nil, fmt.Errorf("combblas: SpGEMM shape mismatch %d×%d · %d×%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols)
	}
	offsets := make([]int64, a.NumRows+1)
	rowsCols := make([][]uint32, a.NumRows)
	rowsVals := make([][]int64, a.NumRows)
	// Per-row cost is the sum of B-row lengths over the row's nonzeros —
	// unpredictable from A's structure alone — so rows are claimed
	// dynamically, with the accumulator map reused per worker.
	accs := make([]map[uint32]int64, pool.Workers())
	backend.NewSweep(pool, int(a.NumRows), spgemmGrain, func(worker, lo, hi int) {
		acc := accs[worker]
		if acc == nil {
			acc = make(map[uint32]int64)
			accs[worker] = acc
		}
		for r := lo; r < hi; r++ {
			clear(acc)
			aCols, _ := a.Row(uint32(r))
			for _, j := range aCols {
				bCols, _ := b.Row(j)
				for _, k := range bCols {
					acc[k]++
				}
			}
			if len(acc) == 0 {
				continue
			}
			cols := make([]uint32, 0, len(acc))
			for k := range acc {
				cols = append(cols, k)
			}
			sortU32(cols)
			vals := make([]int64, len(cols))
			for i, k := range cols {
				vals[i] = acc[k]
			}
			rowsCols[r] = cols
			rowsVals[r] = vals
		}
	}).Run()
	for r := uint32(0); r < a.NumRows; r++ {
		offsets[r+1] = offsets[r] + int64(len(rowsCols[r]))
	}
	cols := make([]uint32, offsets[a.NumRows])
	vals := make([]int64, offsets[a.NumRows])
	for r := uint32(0); r < a.NumRows; r++ {
		copy(cols[offsets[r]:], rowsCols[r])
		copy(vals[offsets[r]:], rowsVals[r])
	}
	return &SpMat[int64]{NumRows: a.NumRows, NumCols: b.NumCols, Offsets: offsets, Cols: cols, Vals: vals}, nil
}

// EWiseMultSum returns Σ over positions present in both pattern matrix a
// and value matrix b of b's value — nnz(A ∩ A²) weighted, the triangle
// count reduction. Both matrices must share shape and have sorted columns.
// Chunks of rows are claimed on the caller's pool and each folds its partial
// sum into the total with one atomic add (integer addition is exact, so the
// sum is the same at any pool size).
func EWiseMultSum(pool *backend.Pool, a *SpMat[struct{}], b *SpMat[int64]) (int64, error) {
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

func sortU32(ids []uint32) {
	if len(ids) < 2 {
		return
	}
	// Insertion sort for short rows, else a simple quicksort.
	if len(ids) <= 24 {
		for i := 1; i < len(ids); i++ {
			v := ids[i]
			j := i - 1
			for j >= 0 && ids[j] > v {
				ids[j+1] = ids[j]
				j--
			}
			ids[j+1] = v
		}
		return
	}
	pivot := ids[len(ids)/2]
	i, j := 0, len(ids)-1
	for i <= j {
		for ids[i] < pivot {
			i++
		}
		for ids[j] > pivot {
			j--
		}
		if i <= j {
			ids[i], ids[j] = ids[j], ids[i]
			i++
			j--
		}
	}
	sortU32(ids[:j+1])
	sortU32(ids[i:])
}

// ReduceInto folds every row of the matrix to a scalar with the
// semiring's ⊕ over ⊗-mapped nonzeros — CombBLAS's row-wise Reduce
// primitive — into the caller-provided out slice (len NumRows).
func ReduceInto[A, X, Y any](m *SpMat[A], x X, out []Y, sr Semiring[A, X, Y]) error {
	if len(out) != int(m.NumRows) {
		return fmt.Errorf("combblas: Reduce output length %d, matrix has %d rows", len(out), m.NumRows)
	}
	par.ForOffsets(m.Offsets, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			acc := sr.Zero()
			_, vals := m.Row(uint32(r))
			for i := range vals {
				acc = sr.Add(acc, sr.Mul(vals[i], x))
			}
			out[r] = acc
		}
	})
	return nil
}

// Reduce is the allocating convenience wrapper over ReduceInto. The
// engine's PageRank uses it to derive the degree vector.
func Reduce[A, X, Y any](m *SpMat[A], x X, sr Semiring[A, X, Y]) []Y {
	out := make([]Y, m.NumRows)
	_ = ReduceInto(m, x, out, sr) // out is sized to NumRows: cannot fail
	return out
}

// Apply maps fn over a dense vector in place — CombBLAS's element-wise
// Apply primitive for the "data parallel operations on dense vectors" the
// paper's CF and PageRank formulations need.
func Apply[T any](v []T, fn func(i int, x T) T) {
	par.For(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = fn(i, v[i])
		}
	})
}
