// Package gen provides the deterministic synthetic data generators the
// paper uses for its scaling studies (§4.1.2): the Graph500 RMAT edge
// generator, and a power-law rating-matrix generator built by folding RMAT
// output into a bipartite users×items matrix.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// RMATConfig parameterizes the recursive-matrix generator. A, B, and C are
// the quadrant probabilities (D = 1-A-B-C). The paper's presets:
//
//   - Graph500 default (PageRank/BFS): A=0.57, B=C=0.19
//   - Triangle counting (fewer triangles): A=0.45, B=C=0.15
//   - Collaborative filtering (Netflix-like tail): A=0.40, B=C=0.22
type RMATConfig struct {
	Scale    int   // number of vertices = 2^Scale
	NumEdges int64 // raw edges generated (before dedup)
	A, B, C  float64
	Seed     int64
	// Noise perturbs the quadrant probabilities at every level, as the
	// Graph500 reference generator does, to avoid ringing artifacts.
	Noise float64
	// PermuteVertices applies a pseudo-random relabeling so vertex id
	// carries no locality information.
	PermuteVertices bool
}

// Graph500Config returns the paper's default RMAT parameters at the given
// scale with edgeFactor edges per vertex (Graph500 uses 16).
func Graph500Config(scale int, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{
		Scale:           scale,
		NumEdges:        int64(edgeFactor) << uint(scale),
		A:               0.57,
		B:               0.19,
		C:               0.19,
		Seed:            seed,
		Noise:           0.05,
		PermuteVertices: true,
	}
}

// TriangleConfig returns the paper's triangle-counting RMAT parameters
// (A=0.45, B=C=0.15), which reduce the triangle count.
func TriangleConfig(scale int, edgeFactor int, seed int64) RMATConfig {
	c := Graph500Config(scale, edgeFactor, seed)
	c.A, c.B, c.C = 0.45, 0.15, 0.15
	return c
}

// RatingsRMATConfig returns the paper's collaborative-filtering RMAT
// parameters (A=0.40, B=C=0.22), whose degree-distribution tail tracks the
// Netflix dataset.
func RatingsRMATConfig(scale int, edgeFactor int, seed int64) RMATConfig {
	c := Graph500Config(scale, edgeFactor, seed)
	c.A, c.B, c.C = 0.40, 0.22, 0.22
	return c
}

// Validate reports the first problem with the configuration.
func (c RMATConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("gen: scale %d outside [1,30]", c.Scale)
	}
	if c.NumEdges < 0 {
		return fmt.Errorf("gen: negative edge count %d", c.NumEdges)
	}
	if !finite(c.A) || !finite(c.B) || !finite(c.C) || c.A <= 0 || c.B < 0 || c.C < 0 || c.A+c.B+c.C >= 1 {
		return fmt.Errorf("gen: invalid quadrant probabilities A=%v B=%v C=%v", c.A, c.B, c.C)
	}
	// Noise in [0, 1] keeps every noised quadrant weight non-negative, the
	// precondition of rmatEdge's branch-free quadrant pick.
	if !(c.Noise >= 0 && c.Noise <= 1) {
		return fmt.Errorf("gen: noise %v outside [0,1]", c.Noise)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// NumVertices reports 2^Scale.
func (c RMATConfig) NumVertices() uint32 { return uint32(1) << uint(c.Scale) }

// RMAT generates the configured edge list. Output is deterministic for a
// given configuration, independent of GOMAXPROCS: the edge stream is split
// into fixed chunks, each generated from a seed derived from (Seed, chunk).
func RMAT(cfg RMATConfig) ([]graph.Edge, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, cfg.NumEdges)
	const chunkSize = 1 << 16
	numChunks := int((cfg.NumEdges + chunkSize - 1) / chunkSize)
	// Static ranges of chunk indices, not RunDynamic: its 64-index grain
	// would run every chunk of a small graph on one worker.
	pool := par.NewPool(min(par.NumWorkers(), max(numChunks, 1)))
	defer pool.Close()
	pool.RunStatic(par.RunnerFunc(func(_, clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			lo := int64(ci) * chunkSize
			hi := min(lo+chunkSize, cfg.NumEdges)
			r := rand.New(rand.NewSource(mix(cfg.Seed, int64(ci))))
			for i := lo; i < hi; i++ {
				edges[i] = rmatEdge(r, cfg)
			}
		}
	}), par.EvenSplits(numChunks, pool.Workers()))

	if cfg.PermuteVertices {
		permuteEdges(edges, cfg.NumVertices(), cfg.Seed)
	}
	return edges, nil
}

// rmatEdge draws one edge by descending the recursive quadrant tree.
func rmatEdge(r *rand.Rand, cfg RMATConfig) graph.Edge {
	var src, dst uint32
	a, b, c := cfg.A, cfg.B, cfg.C
	for level := 0; level < cfg.Scale; level++ {
		al, bl, cl := a, b, c
		if cfg.Noise > 0 {
			// Symmetric noise keeps the expected parameters unchanged.
			al *= 1 + cfg.Noise*(2*r.Float64()-1)
			bl *= 1 + cfg.Noise*(2*r.Float64()-1)
			cl *= 1 + cfg.Noise*(2*r.Float64()-1)
		}
		s, d := quadrant(r.Float64(), al, bl, cl)
		src = src<<1 | s
		dst = dst<<1 | d
	}
	return graph.Edge{Src: src, Dst: dst}
}

// quadrant picks the quadrant u falls in, as its source and target bits,
// from three comparisons against the cumulative weights al, al+bl and
// al+bl+cl rather than a first-match switch: the 57/19/19/5 split would
// mispredict a branch at every level. With bl and cl non-negative
// (Validate's precondition) the thresholds are ordered, so the pick is
// the switch's: u >= al+bl sets the source bit, and the target bit is
// set in quadrants B and D, where exactly one or all three comparisons
// hold.
func quadrant(u, al, bl, cl float64) (src, dst uint32) {
	src = bit(u >= al+bl)
	return src, bit(u >= al) ^ src ^ bit(u >= al+bl+cl)
}

// bit converts a comparison to 0 or 1; the compiler lowers it to a flag
// set, not a branch.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// permuteEdges relabels vertices with a seeded Fisher–Yates permutation.
func permuteEdges(edges []graph.Edge, n uint32, seed int64) {
	perm := Permutation(n, seed)
	for i := range edges {
		edges[i].Src = perm[edges[i].Src]
		edges[i].Dst = perm[edges[i].Dst]
	}
}

// Permutation returns a deterministic pseudo-random permutation of
// [0, n).
func Permutation(n uint32, seed int64) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r := rand.New(rand.NewSource(mix(seed, 0x9e3779b9)))
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// mix combines two 64-bit values into a well-spread seed (splitmix64
// finalizer).
func mix(a, b int64) int64 {
	z := uint64(a) + 0x9e3779b97f4a7c15*uint64(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
