package graph

import (
	"fmt"
	"math"
	"sort"
)

// Partition1D is a contiguous vertex-range partition: node p owns vertices
// [Starts[p], Starts[p+1]). Ranges are chosen so each node holds roughly the
// same number of edges (the paper's native/GraphLab/SociaLite/Giraph
// partitioning, §3.1).
type Partition1D struct {
	NumParts int
	Starts   []uint32
}

// NewPartition1D splits g's vertices into parts contiguous ranges balanced
// by edge count (edges counted in g's stored orientation).
func NewPartition1D(g *CSR, parts int) (*Partition1D, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("graph: partition needs parts>0, got %d", parts)
	}
	if uint32(parts) > g.NumVertices && g.NumVertices > 0 {
		return nil, fmt.Errorf("graph: %d parts for %d vertices", parts, g.NumVertices)
	}
	starts := make([]uint32, parts+1)
	total := g.NumEdges()
	v := uint32(0)
	for p := 1; p < parts; p++ {
		target := total * int64(p) / int64(parts)
		// Advance until the edge prefix reaches the target, but never let a
		// later part run out of vertices.
		limit := g.NumVertices - uint32(parts-p)
		for v < limit && g.Offsets[v] < target {
			v++
		}
		// Every part owns at least one vertex, even when a hub vertex
		// exhausted the edge budget early.
		if v <= starts[p-1] {
			v = starts[p-1] + 1
		}
		starts[p] = v
	}
	starts[parts] = g.NumVertices
	return &Partition1D{NumParts: parts, Starts: starts}, nil
}

// Owner returns the part owning vertex v.
func (p *Partition1D) Owner(v uint32) int {
	// Binary search over the starts array.
	i := sort.Search(p.NumParts, func(i int) bool { return p.Starts[i+1] > v })
	return i
}

// Range returns the vertex range [lo,hi) owned by part i.
func (p *Partition1D) Range(i int) (lo, hi uint32) {
	return p.Starts[i], p.Starts[i+1]
}

// SendIDs returns, for every owning part s and consuming part d, the sorted
// vertices owned by s that have an out-neighbour in g owned by d: the
// boundary values s ships to d each round of a 1-D distributed run.
// sendIDs[s][s] is empty, and so is every pair no edge crosses.
func (p *Partition1D) SendIDs(g *CSR) (sendIDs [][][]uint32) {
	sendIDs = make([][][]uint32, p.NumParts)
	for s := range sendIDs {
		sendIDs[s] = make([][]uint32, p.NumParts)
	}
	for v := uint32(0); v < g.NumVertices; v++ {
		s := p.Owner(v)
		for _, t := range g.Neighbors(v) {
			// Vertices arrive in ascending order, so every list stays sorted
			// and a repeat of v can only be its last entry.
			d := p.Owner(t)
			if ids := sendIDs[s][d]; d != s && (len(ids) == 0 || ids[len(ids)-1] != v) {
				sendIDs[s][d] = append(ids, v)
			}
		}
	}
	return sendIDs
}

// DistinctTargets counts, for every part i, the distinct targets that the
// rows [rows[i], rows[i+1]) of g reach outside [local[i], local[i+1]): the
// remote values part i pulls, or pushes partials for, once per round of a
// distributed run. rows and local are part bounds shaped like
// Partition1D.Starts; a nil local counts every target.
func DistinctTargets(g *CSR, rows, local []uint32) []int64 {
	var universe uint32
	for _, t := range g.Targets {
		universe = max(universe, t+1)
	}
	seen := make([]int, universe) // 1 + the last part that counted the target
	counts := make([]int64, len(rows)-1)
	for i := range counts {
		for _, t := range g.Targets[g.Offsets[rows[i]]:g.Offsets[rows[i+1]]] {
			if seen[t] == i+1 || local != nil && local[i] <= t && t < local[i+1] {
				continue
			}
			seen[t] = i + 1
			counts[i]++
		}
	}
	return counts
}

// Partition2D is CombBLAS's edge partitioning: the adjacency matrix is cut
// into an r×r block grid (r=√parts) and node (i,j) owns block (i,j). The
// process count must be a perfect square (paper §4.3).
type Partition2D struct {
	GridDim int
	// RowStarts/ColStarts delimit the vertex ranges of the block rows and
	// columns; both have GridDim+1 entries.
	RowStarts, ColStarts []uint32
}

// NewPartition2D builds an r×r block partition of an n-vertex square
// adjacency matrix. parts must be a perfect square.
func NewPartition2D(numVertices uint32, parts int) (*Partition2D, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("graph: partition needs parts>0, got %d", parts)
	}
	r := int(math.Round(math.Sqrt(float64(parts))))
	if r*r != parts {
		return nil, fmt.Errorf("graph: 2-D partition requires a square process count, got %d", parts)
	}
	if uint32(r) > numVertices && numVertices > 0 {
		return nil, fmt.Errorf("graph: grid dimension %d exceeds %d vertices", r, numVertices)
	}
	starts := make([]uint32, r+1)
	for i := 0; i <= r; i++ {
		starts[i] = MustU32(int64(uint64(numVertices) * uint64(i) / uint64(r)))
	}
	cols := make([]uint32, r+1)
	copy(cols, starts)
	return &Partition2D{GridDim: r, RowStarts: starts, ColStarts: cols}, nil
}

// Block returns the (row, col) grid coordinates of part i.
func (p *Partition2D) Block(i int) (row, col int) {
	return i / p.GridDim, i % p.GridDim
}
