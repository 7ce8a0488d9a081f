package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Orientation controls how a Builder directs the edges it was given,
// mirroring the paper's data preparation (§4.1.2): PageRank keeps the
// generated direction, BFS symmetrizes, and triangle counting orients every
// edge from the smaller to the larger vertex id so the directed graph is
// acyclic.
type Orientation int

const (
	// KeepDirection stores edges exactly as given.
	KeepDirection Orientation = iota
	// Symmetrize stores both (u,v) and (v,u) for every input edge.
	Symmetrize
	// OrientAcyclic stores each edge as (min(u,v), max(u,v)), dropping
	// self-loops, which yields a DAG on distinct vertex ids.
	OrientAcyclic
)

// BuildOptions configures Builder.Build.
type BuildOptions struct {
	Orientation Orientation
	// Dedup removes duplicate edges (after orientation is applied). RMAT
	// generators emit duplicates, so the paper's pipelines always dedup.
	Dedup bool
	// DropSelfLoops removes (v,v) edges regardless of orientation.
	DropSelfLoops bool
	// SortAdjacency leaves every adjacency list sorted by target id.
	SortAdjacency bool
}

// Builder accumulates raw edges and produces a cleaned CSR. A builder is
// reusable: Build consumes the accumulated edges and resets the internal
// buffer (on success and on error alike), so a subsequent AddEdges/Build
// cycle starts from a clean slate.
type Builder struct {
	numVertices uint32
	edges       []Edge
}

// NewBuilder returns a builder for graphs over vertex ids [0, numVertices).
func NewBuilder(numVertices uint32) *Builder {
	return &Builder{numVertices: numVertices}
}

// AddEdges appends a batch of raw directed edges.
func (b *Builder) AddEdges(edges []Edge) {
	b.edges = append(b.edges, edges...)
}

// Reset discards any accumulated edges, returning the builder to its
// freshly-constructed state without waiting for a Build.
func (b *Builder) Reset() { b.edges = nil }

// Build applies the requested transforms and constructs the CSR. The
// accumulated edges are consumed: whether Build succeeds or fails, the
// builder's buffer is reset, so the builder itself is safe to reuse for
// another AddEdges/Build cycle (the transforms reorder the old buffer in
// place, so it is never handed back).
func (b *Builder) Build(opt BuildOptions) (*CSR, error) {
	edges := b.edges
	b.edges = nil // consume: the transforms below mutate the buffer
	for i := range edges {
		if edges[i].Src >= b.numVertices || edges[i].Dst >= b.numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", edges[i].Src, edges[i].Dst, b.numVertices)
		}
	}

	switch opt.Orientation {
	case KeepDirection:
		// Nothing to do.
	case OrientAcyclic:
		w := 0
		for _, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			if e.Src > e.Dst {
				e.Src, e.Dst = e.Dst, e.Src
			}
			edges[w] = e
			w++
		}
		edges = edges[:w]
	case Symmetrize:
		n := len(edges)
		for i := 0; i < n; i++ {
			e := edges[i]
			if e.Src == e.Dst {
				continue
			}
			edges = append(edges, Edge{Src: e.Dst, Dst: e.Src})
		}
	default:
		return nil, fmt.Errorf("graph: unknown orientation %d", opt.Orientation)
	}

	if opt.DropSelfLoops || opt.Orientation == OrientAcyclic {
		w := 0
		for _, e := range edges {
			if e.Src == e.Dst {
				continue
			}
			edges[w] = e
			w++
		}
		edges = edges[:w]
	}

	if opt.Dedup {
		sortEdgesByKey(edges)
		w := 0
		for i, e := range edges {
			if i > 0 && e == edges[i-1] {
				continue
			}
			edges[w] = e
			w++
		}
		edges = edges[:w]
	}

	g := buildCSR(b.numVertices, b.numVertices, len(edges), func(i int) (uint32, uint32) {
		return edges[i].Src, edges[i].Dst
	}, nil)
	if opt.SortAdjacency {
		g.SortAdjacency()
	} else if opt.Dedup {
		// The dedup sort already ordered each adjacency list.
		g.sortedAdj = true
	}
	g.symmetrized = opt.Orientation == Symmetrize
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Bipartite is a user×item rating graph in both orientations, the shape
// collaborative filtering consumes (paper Figure 1): ByUser holds each
// user's rated items, ByItem the transpose.
type Bipartite struct {
	NumUsers, NumItems uint32
	ByUser             *CSR // NumUsers vertices; targets are item ids
	ByItem             *CSR // NumItems vertices; targets are user ids
}

// NumRatings reports the number of (user,item) ratings.
func (b *Bipartite) NumRatings() int64 { return b.ByUser.NumEdges() }

// MemoryBytes estimates the resident size of both orientations.
func (b *Bipartite) MemoryBytes() int64 {
	return b.ByUser.MemoryBytes() + b.ByItem.MemoryBytes()
}

// NewBipartite builds both orientations from raw ratings. Duplicate
// (user,item) pairs keep the last rating seen.
func NewBipartite(numUsers, numItems uint32, ratings []WeightedEdge) (*Bipartite, error) {
	if numUsers == 0 || numItems == 0 {
		return nil, errors.New("graph: bipartite graph needs at least one user and one item")
	}
	for _, r := range ratings {
		if r.Src >= numUsers {
			return nil, fmt.Errorf("graph: user %d out of range [0,%d)", r.Src, numUsers)
		}
		if r.Dst >= numItems {
			return nil, fmt.Errorf("graph: item %d out of range [0,%d)", r.Dst, numItems)
		}
	}
	sorted := make([]WeightedEdge, len(ratings))
	copy(sorted, ratings)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	w := 0
	for i, r := range sorted {
		if i > 0 && r.Src == sorted[i-1].Src && r.Dst == sorted[i-1].Dst {
			sorted[w-1].Weight = r.Weight // keep last rating
			continue
		}
		sorted[w] = r
		w++
	}
	sorted = sorted[:w]

	byUser, err := FromWeightedEdgesRect(numUsers, numItems, sorted)
	if err != nil {
		return nil, err
	}
	byUser.sortedAdj = true
	reversed := make([]WeightedEdge, len(sorted))
	for i, r := range sorted {
		reversed[i] = WeightedEdge{Src: r.Dst, Dst: r.Src, Weight: r.Weight}
	}
	byItem, err := FromWeightedEdgesRect(numItems, numUsers, reversed)
	if err != nil {
		return nil, err
	}
	byItem.SortAdjacency()
	return &Bipartite{NumUsers: numUsers, NumItems: numItems, ByUser: byUser, ByItem: byItem}, nil
}
