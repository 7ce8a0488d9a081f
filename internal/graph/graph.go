// Package graph provides the in-memory graph representations used by every
// engine in graphmaze: Compressed Sparse Row (CSR) adjacency, edge lists,
// bipartite rating graphs, and the partitioners that split a graph across
// the nodes of a (simulated) cluster.
//
// The CSR layout follows the paper's native implementation: all edges live
// in one contiguous array so traversal is a streaming scan, which is what
// makes the memory-bandwidth-bound behaviour of PageRank and friends
// observable.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"graphmaze/internal/par"
)

// Edge is a directed edge between two vertices.
type Edge struct {
	Src, Dst uint32
}

// WeightedEdge is a directed edge carrying a weight (a rating in the
// collaborative-filtering workloads).
type WeightedEdge struct {
	Src, Dst uint32
	Weight   float32
}

// CSR is a directed graph in Compressed Sparse Row form. For vertex v the
// adjacency list is Targets[Offsets[v]:Offsets[v+1]]. Whether that list
// holds out-neighbours or in-neighbours is up to the constructor;
// algorithms document which orientation they expect.
//
// Weights is nil for unweighted graphs; when non-nil it is parallel to
// Targets.
type CSR struct {
	NumVertices uint32
	Offsets     []int64
	Targets     []uint32
	Weights     []float32

	// targetSpace is the number of valid target ids. It equals NumVertices
	// for square (ordinary) graphs and the opposite side's cardinality for
	// the rectangular CSRs inside a Bipartite.
	targetSpace uint32
	sortedAdj   bool
	symmetrized bool
}

// TargetSpace reports the number of valid target ids (NumVertices for
// square graphs, the other side's size for bipartite orientations).
func (g *CSR) TargetSpace() uint32 { return g.targetSpace }

// NumEdges reports the number of directed edges stored.
func (g *CSR) NumEdges() int64 {
	if len(g.Offsets) == 0 {
		return 0
	}
	return g.Offsets[len(g.Offsets)-1]
}

// Degree reports the length of vertex v's adjacency list.
func (g *CSR) Degree(v uint32) int64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// Neighbors returns vertex v's adjacency list. The returned slice aliases
// the graph's storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(v), or nil for an
// unweighted graph.
func (g *CSR) EdgeWeights(v uint32) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// SortedAdjacency reports whether every adjacency list is sorted by vertex
// id (required by the merge-based triangle-counting kernels).
func (g *CSR) SortedAdjacency() bool { return g.sortedAdj }

// Symmetrized reports whether construction stored every edge's reverse: a
// Builder with Symmetrize built the graph, ApplyDelta merged it under
// DeltaOptions.Symmetrize from a base that reports true, or Transpose
// reversed such a graph. It is a record, not a check (Symmetric is the
// check), and the snapshot codec does not persist it, so a decoded graph
// reports false. A kernel may read the graph's rows as its in-edges when
// it reports true.
func (g *CSR) Symmetrized() bool { return g.symmetrized }

// HasEdge reports whether the edge (u,v) is present. It is O(log d(u)) on
// sorted adjacency, by the branch-free lowerBound, and O(d(u)) otherwise.
// SociaLite's per-tuple index probe and ApplyDelta's duplicate filter call
// it in inner loops.
func (g *CSR) HasEdge(u, v uint32) bool {
	adj := g.Neighbors(u)
	if g.sortedAdj {
		i := lowerBound(adj, v)
		return i < len(adj) && adj[i] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

// lowerBound returns the first index i with s[i] >= x, or len(s), on a
// sorted s. Each step halves the candidate range [base, base+n] and moves
// base by half &^ mask, where mask is all ones exactly when s[base+half-1]
// >= x: arithmetic, not a branch, because the probe's outcome on a random
// key is a coin flip the predictor loses half the time. (Go does not turn
// `if s[m] < x { base = m }` into a conditional move inside a loop.)
func lowerBound(s []uint32, x uint32) int {
	base, n := 0, len(s)
	for n > 0 {
		half := n - n>>1
		mask := int((int64(x) - 1 - int64(s[base+half-1])) >> 63)
		base += half &^ mask
		n >>= 1
	}
	return base
}

// IntersectSortedCount counts common elements of two sorted, duplicate-free
// id lists: the merge every engine's triangle count runs over sorted
// adjacency. It first skips, by lowerBound, the prefix of either list below
// the other's first element (on an acyclically oriented graph, the ids of
// v's row up to its neighbour u all lie below u's row), then merges without
// a branch on the comparison: each step advances i on ai <= bj and j on
// ai >= bj, and counts when both advance.
func IntersectSortedCount(a, b []uint32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	a = a[lowerBound(a, b[0]):]
	if len(a) == 0 {
		return 0
	}
	b = b[lowerBound(b, a[0]):]
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i], b[j]
		di, dj := 0, 0
		if ai <= bj {
			di = 1
		}
		if ai >= bj {
			dj = 1
		}
		c += di & dj
		i += di
		j += dj
	}
	return c
}

// Edges materializes the edge list. Intended for tests and tooling.
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := uint32(0); v < g.NumVertices; v++ {
		for _, w := range g.Neighbors(v) {
			out = append(out, Edge{Src: v, Dst: w})
		}
	}
	return out
}

// MemoryBytes estimates the resident size of the CSR arrays. The paper's
// memory-footprint analysis (Figure 6) is driven by this kind of
// accounting.
func (g *CSR) MemoryBytes() int64 {
	b := int64(len(g.Offsets))*8 + int64(len(g.Targets))*4
	if g.Weights != nil {
		b += int64(len(g.Weights)) * 4
	}
	return b
}

// Validate checks structural invariants: monotone offsets, targets in
// range, and weight-array shape. It returns the first violation found.
func (g *CSR) Validate() error {
	if int(g.NumVertices)+1 != len(g.Offsets) {
		return fmt.Errorf("graph: %d vertices but %d offsets", g.NumVertices, len(g.Offsets))
	}
	if len(g.Offsets) == 0 || g.Offsets[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	for i := 1; i < len(g.Offsets); i++ {
		if g.Offsets[i] < g.Offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", i-1)
		}
	}
	if g.Offsets[len(g.Offsets)-1] != int64(len(g.Targets)) {
		return fmt.Errorf("graph: final offset %d != %d targets", g.Offsets[len(g.Offsets)-1], len(g.Targets))
	}
	for i, t := range g.Targets {
		if t >= g.targetSpace {
			return fmt.Errorf("graph: target %d at position %d out of range [0,%d)", t, i, g.targetSpace)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Targets) {
		return fmt.Errorf("graph: %d weights for %d targets", len(g.Weights), len(g.Targets))
	}
	if g.sortedAdj {
		for v := uint32(0); v < g.NumVertices; v++ {
			adj := g.Neighbors(v)
			for i := 1; i < len(adj); i++ {
				if adj[i-1] > adj[i] {
					return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
				}
			}
		}
	}
	return nil
}

// FromEdges builds a CSR whose adjacency lists hold the Dst endpoints of
// the given edges, without deduplication. Use a Builder for the transforms
// (dedup, symmetrize, orientation) the paper's data preparation applies.
func FromEdges(numVertices uint32, edges []Edge) (*CSR, error) {
	g := buildCSR(numVertices, numVertices, len(edges), func(i int) (uint32, uint32) {
		e := edges[i]
		return e.Src, e.Dst
	}, nil)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromWeightedEdges builds a weighted CSR, keyed by Src, without
// deduplication.
func FromWeightedEdges(numVertices uint32, edges []WeightedEdge) (*CSR, error) {
	return FromWeightedEdgesRect(numVertices, numVertices, edges)
}

// FromWeightedEdgesRect builds a rectangular weighted CSR: sources live in
// [0,numSources), targets in [0,numTargets). Bipartite rating graphs are
// rectangular.
func FromWeightedEdgesRect(numSources, numTargets uint32, edges []WeightedEdge) (*CSR, error) {
	g := buildCSR(numSources, numTargets, len(edges), func(i int) (uint32, uint32) {
		e := edges[i]
		return e.Src, e.Dst
	}, func(i int) float32 { return edges[i].Weight })
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildCSR does a two-pass counting-sort construction: one pass to count
// degrees, one to scatter targets. edgeAt must be safe for repeated calls.
func buildCSR(numVertices, numTargets uint32, numEdges int, edgeAt func(int) (uint32, uint32), weightAt func(int) float32) *CSR {
	offsets := make([]int64, numVertices+1)
	for i := 0; i < numEdges; i++ {
		src, _ := edgeAt(i)
		offsets[src+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, numEdges)
	var weights []float32
	if weightAt != nil {
		weights = make([]float32, numEdges)
	}
	cursor := make([]int64, numVertices)
	for i := 0; i < numEdges; i++ {
		src, dst := edgeAt(i)
		pos := offsets[src] + cursor[src]
		targets[pos] = dst
		if weights != nil {
			weights[pos] = weightAt(i)
		}
		cursor[src]++
	}
	return &CSR{NumVertices: numVertices, Offsets: offsets, Targets: targets, Weights: weights, targetSpace: numTargets}
}

// transposeCutover is the edge count below which Transpose runs its
// passes as one range on the caller: under it a pool's start-up costs
// more than the second worker saves.
const transposeCutover = 1 << 16

// In returns the graph's in-edge view: row v lists v's in-neighbours in
// ascending order. A graph that is Symmetrized, has SortedAdjacency and
// is unweighted is its own transpose array for array, so In returns it
// and a kernel's fold order is the one Transpose would give; any other
// graph is transposed.
func (g *CSR) In() *CSR {
	if g.symmetrized && g.sortedAdj && g.Weights == nil {
		return g
	}
	return g.Transpose()
}

// Transpose returns the graph with every edge reversed. An out-CSR becomes
// an in-CSR and vice versa; PageRank's native kernel wants in-edges in CSR
// form (paper §3.1). Weights follow their edges; a rectangular CSR swaps
// its source and target spaces.
//
// It is one counting sort whose count and scatter passes run on a pool
// started for the call, each worker over one OffsetSplits range of
// sources. Worker w counts its in-edges per target; a prefix over
// (target, worker) then starts w's run in each in-list after the runs of
// workers < w, and the scatter writes every run in ascending source
// order. So every in-list is sorted by source, exactly the array a
// serial pass makes, at any worker count. Positions within a list are
// uint32 (one per target per worker: at two workers the bytes of one
// int64 cursor per target); a graph of 2^32 edges or more takes int64
// positions and one worker.
func (g *CSR) Transpose() *CSR {
	if int64(len(g.Targets)) >= 1<<32 {
		return transpose[int64](g, 1)
	}
	workers := 1
	if len(g.Targets) >= transposeCutover {
		// Every worker's positions span all targets: at most one worker
		// per edge per target keeps them, and the prefix over them, within
		// the size of the edge array at any core count.
		workers = max(1, min(par.NumWorkers(), int(g.NumVertices), len(g.Targets)/max(int(g.targetSpace), 1)))
	}
	return transpose[uint32](g, workers)
}

func transpose[P uint32 | int64](g *CSR, workers int) *CSR {
	n := g.targetSpace
	srcOff, srcTgt, srcW := g.Offsets, g.Targets, g.Weights
	var pool *par.Pool
	if workers > 1 {
		pool = par.NewPool(workers)
		defer pool.Close()
	}
	run := func(r par.RunnerFunc, bounds []int) {
		if pool == nil {
			if bounds[0] < bounds[1] {
				r(0, bounds[0], bounds[1])
			}
			return
		}
		pool.RunStatic(r, bounds)
	}
	bounds := OffsetSplits(srcOff, workers)
	// pos[w][t] first counts worker w's in-edges of t, then holds where
	// the next of them goes within t's in-list.
	pos := make([][]P, workers)
	for w := range pos {
		pos[w] = make([]P, n)
	}
	run(func(w, lo, hi int) {
		p := pos[w]
		for _, t := range srcTgt[srcOff[lo]:srcOff[hi]] {
			p[t]++
		}
	}, bounds)
	offsets := make([]int64, n+1)
	run(func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			var start P
			for _, p := range pos {
				start, p[t] = start+p[t], start
			}
			offsets[t+1] = int64(start)
		}
	}, par.EvenSplits(int(n), workers))
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(srcTgt))
	var weights []float32
	if srcW != nil {
		weights = make([]float32, len(srcW))
	}
	run(func(w, lo, hi int) {
		p := pos[w]
		for v := uint32(lo); v < uint32(hi); v++ {
			for i := srcOff[v]; i < srcOff[v+1]; i++ {
				t := srcTgt[i]
				at := offsets[t] + int64(p[t])
				targets[at] = v
				if weights != nil {
					weights[at] = srcW[i]
				}
				p[t]++
			}
		}
	}, bounds)
	return &CSR{NumVertices: n, Offsets: offsets, Targets: targets, Weights: weights, targetSpace: g.NumVertices, sortedAdj: true, symmetrized: g.symmetrized}
}

// TransposeArrays is Transpose for a square pattern graph held only as
// its CSR arrays (len(offsets) = n+1, every target below n), such as a
// kernel's matrix view, which carries no *CSR.
func TransposeArrays(n uint32, offsets []int64, targets []uint32) *CSR {
	return (&CSR{NumVertices: n, Offsets: offsets, Targets: targets, targetSpace: n}).Transpose()
}

// Symmetric reports whether every edge has its reverse, by comparing the
// graph with its transpose array for array. The adjacency must be sorted
// (Transpose's always is); an unsorted or rectangular graph reports false.
func (g *CSR) Symmetric() bool {
	if !g.sortedAdj || g.targetSpace != g.NumVertices {
		return false
	}
	t := g.Transpose()
	return slices.Equal(g.Offsets, t.Offsets) && slices.Equal(g.Targets, t.Targets)
}

// SortAdjacency sorts every adjacency list in place by target id (weights,
// if present, move with their targets) and marks the graph sorted.
func (g *CSR) SortAdjacency() {
	for v := uint32(0); v < g.NumVertices; v++ {
		start, end := g.Offsets[v], g.Offsets[v+1]
		adj := g.Targets[start:end]
		if g.Weights == nil {
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
			continue
		}
		w := g.Weights[start:end]
		sort.Sort(&adjWeightSorter{adj: adj, w: w})
	}
	g.sortedAdj = true
}

type adjWeightSorter struct {
	adj []uint32
	w   []float32
}

func (s *adjWeightSorter) Len() int           { return len(s.adj) }
func (s *adjWeightSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjWeightSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// OutDegrees returns the degree array of the stored orientation.
func (g *CSR) OutDegrees() []int64 {
	d := make([]int64, g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		d[v] = g.Degree(v)
	}
	return d
}
