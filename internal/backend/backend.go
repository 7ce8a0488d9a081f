// Package backend is the unified GraphMat-style SpMV engine the
// frameworks lower onto (PAPERS.md: GraphMat "maps vertex programs to
// generalized sparse matrix vector multiplication"). One hand-optimized
// substrate provides:
//
//   - one pooled SpMV kernel over the shared CSR ([SumVecMul], the float64
//     plus-times pattern product), and the one PageRank iteration built on
//     it ([PageRankSweep]) that Native and every lowered PageRank run,
//   - one direction-switching level-synchronous frontier kernel
//     ([Traversal]) for BFS-shaped computations: a whole BFS that writes
//     distances ([Traversal.Run]), or the level step a framework's own
//     loop drives ([Traversal.Claim], [Traversal.Step]),
//   - kernels that run on the caller's persistent par.Pool, so the
//     per-iteration hot loop reuses parked goroutines and preallocated
//     scratch instead of re-spawning and re-allocating (zero steady-state
//     allocations; benchmark-asserted); each kernel is a par.Runner,
//   - edge-balanced static row splits (graph.OffsetSplits on the CSR prefix
//     sums) and 64-aligned dynamic chunk claiming, both chosen so results
//     are bit-identical at every GOMAXPROCS setting.
//
// Engines keep their own arithmetic when they lower: each picks the
// constants of its per-iteration vector transforms exactly as its model
// prescribes, and the per-row fold is serial within a row (ascending
// column order) and therefore deterministic regardless of how rows are
// distributed over workers.
package backend

import "graphmaze/internal/graph"

// Matrix is the backend's view of a sparse pattern matrix: the CSR arrays
// shared (not copied) from internal/graph or an engine's own matrix type.
// Nonzero values, when an operation needs them, travel alongside as a
// parallel slice so pattern matrices pay nothing for them.
type Matrix struct {
	NumRows uint32
	// Offsets is the row prefix-sum array (len NumRows+1).
	Offsets []int64
	// Cols holds the column index of each nonzero, ascending within a row
	// for matrices built from prepared graphs — the order the
	// deterministic per-row folds rely on.
	Cols []uint32

	// occ holds the row-occupancy words SumVecMul walks, when
	// WithOccupancy built them; otherwise each kernel builds its own.
	occ []uint64
}

// FromCSR wraps a graph's CSR arrays as a backend matrix (no copy).
func FromCSR(g *graph.CSR) *Matrix {
	return &Matrix{NumRows: g.NumVertices, Offsets: g.Offsets, Cols: g.Targets}
}

// WithOccupancy builds m's row-occupancy words (n/8 bytes) once, so every
// SumVecMul later built over m shares them instead of building its own: a
// matrix many short-lived kernels read, such as a served epoch's in-CSR,
// pays for them once. Call it before m is shared; it returns m.
func (m *Matrix) WithOccupancy() *Matrix {
	m.occ = occupancy(m.Offsets)
	return m
}

// FromSnapshot wraps one immutable epoch of a versioned graph (no copy).
func FromSnapshot(s *graph.Snapshot) *Matrix { return FromCSR(s.CSR()) }

// NNZ reports the number of stored nonzeros.
func (m *Matrix) NNZ() int64 { return int64(len(m.Cols)) }
