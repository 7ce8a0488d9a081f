// Package graphmaze is a from-scratch Go reproduction of "Navigating the
// Maze of Graph Analytics Frameworks using Massive Graph Datasets"
// (Satish et al., SIGMOD 2014).
//
// It provides six interchangeable graph-analytics engines — a
// hand-optimized Native baseline plus faithful reimplementations of the
// GraphLab, CombBLAS, SociaLite, Giraph, and Galois programming models —
// four algorithms (PageRank, BFS, triangle counting, collaborative
// filtering), Graph500-style data generators, a simulated multi-node
// cluster with modeled communication layers, and the experiment harness
// that regenerates every table and figure of the paper.
//
// Quick start:
//
//	g, _ := graphmaze.Generate(graphmaze.Graph500{Scale: 16, EdgeFactor: 16}, graphmaze.ForPageRank)
//	res, _ := graphmaze.Native().PageRank(g, graphmaze.PageRankOptions{})
//	fmt.Println(res.Ranks[:10])
package graphmaze

import (
	"fmt"
	"strings"

	"graphmaze/internal/cluster"
	"graphmaze/internal/combblas"
	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
	"graphmaze/internal/galois"
	"graphmaze/internal/gen"
	"graphmaze/internal/giraph"
	"graphmaze/internal/graph"
	"graphmaze/internal/graphlab"
	"graphmaze/internal/native"
	"graphmaze/internal/socialite"
)

// Core re-exports: the algorithm contract shared by all engines.
type (
	// Engine is a graph-analytics framework under study.
	Engine = core.Engine
	// Graph is a directed graph in Compressed Sparse Row form.
	Graph = graph.CSR
	// Ratings is a bipartite user×item rating graph.
	Ratings = graph.Bipartite
	// Edge is a directed edge.
	Edge = graph.Edge
	// Rating is one (user, item, stars) triple.
	Rating = graph.WeightedEdge

	// PageRankOptions configures PageRank (paper eq. 1).
	PageRankOptions = core.PageRankOptions
	// BFSOptions configures breadth-first search.
	BFSOptions = core.BFSOptions
	// TriangleOptions configures triangle counting.
	TriangleOptions = core.TriangleOptions
	// CFOptions configures collaborative filtering (paper eq. 4).
	CFOptions = core.CFOptions

	// PageRankResult, BFSResult, TriangleResult and CFResult carry each
	// algorithm's output plus run statistics.
	PageRankResult = core.PageRankResult
	BFSResult      = core.BFSResult
	TriangleResult = core.TriangleResult
	CFResult       = core.CFResult

	// ClusterConfig requests a simulated multi-node run; set it in an
	// options' Exec field.
	ClusterConfig = cluster.Config
	// Exec selects single-node (zero value) or cluster execution.
	Exec = core.Exec
)

// CFMethod values.
const (
	// GradientDescent is expressible in every engine.
	GradientDescent = core.GradientDescent
	// SGD is expressible only in Native and Galois (paper §3.2).
	SGD = core.SGD
)

// Communication layer presets for ClusterConfig.Comm (bandwidths are the
// paper's measured rates; see internal/cluster).
var (
	// MPI is the native/CombBLAS layer (5.5 GB/s modeled peak).
	MPI = cluster.MPI
	// IPoIBSockets is GraphLab's socket stack (1.2 GB/s).
	IPoIBSockets = cluster.IPoIBSockets
	// SingleSocket is unoptimized SociaLite's layer (0.5 GB/s).
	SingleSocket = cluster.SingleSocket
	// MultiSocket is optimized SociaLite's layer (2.0 GB/s).
	MultiSocket = cluster.MultiSocket
	// Netty is Giraph's layer (0.35 GB/s).
	Netty = cluster.Netty
)

// Engine constructors.

// Native returns the hand-optimized baseline engine (paper §6.1).
func Native() Engine { return native.New() }

// GraphLab returns the GAS vertex-programming engine.
func GraphLab() Engine { return graphlab.New() }

// CombBLAS returns the sparse-matrix/semiring engine.
func CombBLAS() Engine { return combblas.New() }

// SociaLite returns the Datalog engine (network-optimized, §6.1.3).
func SociaLite() Engine { return socialite.New() }

// Giraph returns the BSP vertex-programming engine.
func Giraph() Engine { return giraph.New() }

// Galois returns the task-parallel engine (single-node only).
func Galois() Engine { return galois.New() }

// Engines returns all six engines in the paper's comparison order.
func Engines() []Engine {
	return []Engine{Native(), CombBLAS(), GraphLab(), SociaLite(), Giraph(), Galois()}
}

// EngineByName resolves a case-insensitive engine name.
func EngineByName(name string) (Engine, error) {
	for _, e := range Engines() {
		if strings.EqualFold(e.Name(), name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("graphmaze: unknown engine %q", name)
}

// Preparation recipes (paper §4.1).
const (
	// ForPageRank keeps edge direction.
	ForPageRank = datasets.PrepPageRank
	// ForBFS symmetrizes.
	ForBFS = datasets.PrepBFS
	// ForTriangles orients edges acyclically with sorted adjacency.
	ForTriangles = datasets.PrepTriangle
)

// Graph500 parameterizes the synthetic generator (paper §4.1.2).
type Graph500 struct {
	Scale      int // vertices = 2^Scale
	EdgeFactor int // edges ≈ EdgeFactor × vertices
	Seed       int64
}

// Generate builds a synthetic RMAT graph with the given preparation.
func Generate(g Graph500, prep datasets.Prep) (*Graph, error) {
	if g.EdgeFactor == 0 {
		g.EdgeFactor = 16
	}
	return datasets.Generate(g.Scale, g.EdgeFactor, g.Seed, prep)
}

// GenerateRatings builds a synthetic power-law rating set mirroring the
// Netflix degree distribution (paper §4.1.2).
func GenerateRatings(scale, ratingsPerUser int, seed int64) (*Ratings, error) {
	return gen.Ratings(gen.DefaultRatingsConfig(scale, ratingsPerUser, seed))
}

// Dataset loads one of the named real-world stand-ins ("facebook",
// "wikipedia", "livejournal", "twitter", "graph500").
func Dataset(name string, prep datasets.Prep) (*Graph, error) {
	p, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.Build(prep)
}

// RatingsDataset loads a named rating-set stand-in ("netflix",
// "yahoomusic").
func RatingsDataset(name string) (*Ratings, error) {
	p, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.BuildRatings()
}

// LoadEdgeList reads a "src dst" edge-list file with the given
// preparation.
func LoadEdgeList(path string, prep datasets.Prep) (*Graph, error) {
	return datasets.LoadEdgeListFile(path, prep)
}

// LoadRatings reads a "user item rating" file (Netflix-style triples)
// into a bipartite rating graph.
func LoadRatings(path string) (*Ratings, error) {
	return datasets.LoadRatingsFile(path)
}

// NewGraph builds a graph directly from an edge list, exactly as given
// (no dedup, no orientation, unsorted adjacency). Use Prepare for the
// paper's per-algorithm preparations.
func NewGraph(numVertices uint32, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numVertices, edges)
}

// Prepare applies one of the paper's preparation recipes (§4.1) to a raw
// edge list: dedup for PageRank, symmetrize for BFS, acyclic orientation
// with sorted adjacency for triangle counting.
func Prepare(numVertices uint32, edges []Edge, prep datasets.Prep) (*Graph, error) {
	return datasets.PrepareEdges(numVertices, edges, prep)
}

// NewRatings builds a bipartite rating graph from explicit ratings
// (duplicate (user,item) pairs keep the last rating).
func NewRatings(numUsers, numItems uint32, ratings []Rating) (*Ratings, error) {
	return graph.NewBipartite(numUsers, numItems, ratings)
}
