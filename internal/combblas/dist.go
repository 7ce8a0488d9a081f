package combblas

import (
	"fmt"
	"slices"

	"graphmaze/internal/cluster"
	"graphmaze/internal/graph"
)

// Grid is the 2-D process decomposition: nodes form a √P×√P grid and node
// (i,j) owns the matrix block at block-row i, block-column j (paper §3:
// CombBLAS is "the only framework that supports an edge-based partitioning
// of the graph").
type Grid struct {
	C    *cluster.Cluster
	P2D  *graph.Partition2D
	Dim  int
	rows uint32
}

// NewGrid builds a grid over the cluster for an n-vertex square matrix.
// The node count must be a perfect square (paper §4.3).
func NewGrid(c *cluster.Cluster, n uint32) (*Grid, error) {
	p2d, err := graph.NewPartition2D(n, c.Nodes())
	if err != nil {
		return nil, err
	}
	return &Grid{C: c, P2D: p2d, Dim: p2d.GridDim, rows: n}, nil
}

// blockBounds returns node's block-row and block-column vertex ranges.
func (g *Grid) blockBounds(node int) (rlo, rhi, clo, chi uint32) {
	ri, ci := g.P2D.Block(node)
	return g.P2D.RowStarts[ri], g.P2D.RowStarts[ri+1], g.P2D.ColStarts[ci], g.P2D.ColStarts[ci+1]
}

// accountSpMVTraffic charges one SpMV's exchange: the column-allgather of
// the input segments and the row-wise reduce-scatter of the partial
// outputs. activeFrac scales the volume for sparse (frontier) vectors.
func (g *Grid) accountSpMVTraffic(node int, vecLen int, bytesPerVal int, activeFrac float64) {
	if g.Dim <= 1 {
		return
	}
	segment := float64(vecLen) / float64(g.Dim*g.Dim)
	vol := int64(2 * segment * float64(bytesPerVal) * float64(g.Dim-1) * activeFrac)
	g.C.Account(node, vol, int64(2*(g.Dim-1)))
}

// DistSpMV computes y[r] = ⊕ A[r,c]⊗x[c] with each node folding its own
// block's contribution — the 2-D SpMV of CombBLAS. Matrix rows must have
// sorted column indices. bytesPerVal models the wire size of Y values;
// activeFrac scales traffic for sparse input vectors.
func DistSpMV[A, X, Y any](g *Grid, m *SpMat[A], x []X, sr Semiring[A, X, Y], bytesPerVal int, activeFrac float64) ([]Y, error) {
	if len(x) != int(m.NumCols) {
		return nil, fmt.Errorf("combblas: DistSpMV vector length %d, matrix has %d columns", len(x), m.NumCols)
	}
	y := make([]Y, m.NumRows)
	for i := range y {
		y[i] = sr.Zero()
	}
	err := g.C.RunPhase(func(node int) error {
		rlo, rhi, clo, chi := g.blockBounds(node)
		for r := rlo; r < rhi; r++ {
			cols, vals := m.Row(r)
			// Sorted columns: binary search the block-column window.
			lo, _ := slices.BinarySearch(cols, clo)
			hi, _ := slices.BinarySearch(cols, chi)
			acc := y[r]
			for i := lo; i < hi; i++ {
				acc = sr.Add(acc, sr.Mul(vals[i], x[cols[i]]))
			}
			y[r] = acc
		}
		g.accountSpMVTraffic(node, len(x), bytesPerVal, activeFrac)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}

// DistSpMSpV is the 2-D distributed frontier expansion: node (i,j)
// expands the frontier entries in its block-row through its block-column
// window. Traffic models the frontier-segment allgather and the output
// merge (sizes proportional to the actual frontier, the sparse-vector
// advantage of SpMSpV).
func DistSpMSpV(g *Grid, a *SpMat[struct{}], frontier []uint32, marks []bool) ([]uint32, error) {
	var out []uint32
	err := g.C.RunPhase(func(node int) error {
		rlo, rhi, clo, chi := g.blockBounds(node)
		var produced int64
		for _, v := range frontier {
			if v < rlo || v >= rhi {
				continue
			}
			cols, _ := a.Row(v)
			lo, _ := slices.BinarySearch(cols, clo)
			for i := lo; i < len(cols) && cols[i] < chi; i++ {
				c := cols[i]
				if !marks[c] {
					marks[c] = true
					out = append(out, c)
					produced++
				}
			}
		}
		if g.Dim > 1 {
			seg := int64(len(frontier))/int64(g.C.Nodes()) + 1
			g.C.Account(node, 4*(seg+produced)*int64(g.Dim-1), int64(2*(g.Dim-1)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range out {
		marks[c] = false
	}
	return out, nil
}

// DistTriangleCount computes nnz-weighted |A ∩ A²| distributed
// SUMMA-style: node (i,j) computes its C=A² block with Gustavson's
// algorithm restricted to its block-row and block-column, intersects it
// with its A block, and the partial sums reduce to the global triangle
// count. Each node's A² block is materialized — the memory-hungry
// intermediate the paper calls out. When the modeled footprint exceeds
// node capacity the run fails with ErrOutOfMemory, reproducing the paper's
// CombBLAS TC failures on real-world inputs (§5.2–5.3).
func DistTriangleCount(g *Grid, a *SpMat[struct{}]) (int64, error) {
	var total int64
	var peakBlockBytes int64
	cfg := g.C.Config()
	err := g.C.RunPhase(func(node int) error {
		rlo, rhi, clo, chi := g.blockBounds(node)
		acc := newRowAccumulator(chi - clo)
		var blockNNZ int64
		var partial int64
		for r := rlo; r < rhi; r++ {
			aCols, _ := a.Row(r)
			// The real system materializes the A² block (sorted CSR rows)
			// before the EWiseMult — the expressibility overhead the paper
			// blames for CombBLAS TC: the resident intermediate, modeled
			// below as blockNNZ·12 bytes, and a second pass over it (§6.2:
			// "inter-operation optimization ... can make it more
			// efficient").
			acc.cols, acc.vals = acc.cols[:0], acc.vals[:0]
			acc.appendRow(aCols, a, clo, chi)
			rowCols, rowVals := acc.cols, acc.vals
			blockNNZ += int64(len(rowCols))
			// EWiseMult: merge-intersect A's row window with the block row.
			lo, _ := slices.BinarySearch(aCols, clo)
			i, j := lo, 0
			for i < len(aCols) && aCols[i] < chi && j < len(rowCols) {
				switch {
				case aCols[i] < rowCols[j]:
					i++
				case aCols[i] > rowCols[j]:
					j++
				default:
					partial += rowVals[j]
					i++
					j++
				}
			}
		}
		total += partial
		// SUMMA traffic: in each of Dim stages the node ships its A block
		// twice (row broadcast + column broadcast of the B replica).
		aBlockNNZ := a.NNZ() / int64(g.Dim*g.Dim)
		if g.Dim > 1 {
			g.C.Account(node, 2*aBlockNNZ*8*int64(g.Dim-1), int64(2*(g.Dim-1)*g.Dim))
		}
		// This node's A² block lives until the reduction.
		blockBytes := blockNNZ*12 + a.MemoryBytes(0)/int64(g.C.Nodes())
		g.C.RecordMemory(node, blockBytes)
		if blockBytes > peakBlockBytes {
			peakBlockBytes = blockBytes
		}
		// Count allreduce.
		g.C.Account(node, 8, 1)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if cfg.MemoryPerNode > 0 && peakBlockBytes > cfg.MemoryPerNode {
		return 0, fmt.Errorf("combblas: out of memory computing A² (%d bytes/node exceeds %d): %w",
			peakBlockBytes, cfg.MemoryPerNode, ErrOutOfMemory)
	}
	return total, nil
}

// ErrOutOfMemory marks a modeled memory exhaustion, the failure mode the
// paper reports for CombBLAS triangle counting on real-world inputs.
var ErrOutOfMemory = fmt.Errorf("modeled memory exhausted")
