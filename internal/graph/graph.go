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
// sorted adjacency and O(d(u)) otherwise; intended for tests and small
// inputs, not inner loops.
func (g *CSR) HasEdge(u, v uint32) bool {
	adj := g.Neighbors(u)
	if g.sortedAdj {
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		return i < len(adj) && adj[i] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
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

// Transpose returns the graph with every edge reversed. An out-CSR becomes
// an in-CSR and vice versa; PageRank's native kernel wants in-edges in CSR
// form (paper §3.1). Weights follow their edges; a rectangular CSR swaps
// its source and target spaces. Adjacency sortedness is guaranteed because
// the counting-sort scatter visits sources in order.
func (g *CSR) Transpose() *CSR {
	n := g.targetSpace
	offsets := make([]int64, n+1)
	for _, t := range g.Targets {
		offsets[t+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(g.Targets))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Weights))
	}
	cursor := make([]int64, n)
	for v := uint32(0); v < g.NumVertices; v++ {
		start, end := g.Offsets[v], g.Offsets[v+1]
		for i := start; i < end; i++ {
			t := g.Targets[i]
			pos := offsets[t] + cursor[t]
			targets[pos] = v
			if weights != nil {
				weights[pos] = g.Weights[i]
			}
			cursor[t]++
		}
	}
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

// InDegrees counts how many stored edges point at each target id.
func (g *CSR) InDegrees() []int64 {
	d := make([]int64, g.targetSpace)
	for _, t := range g.Targets {
		d[t]++
	}
	return d
}
