// Package datasets provides the workload inputs of the paper's evaluation
// (§4.1): named stand-ins for the real-world graphs (Facebook, Wikipedia,
// LiveJournal, Twitter) and rating sets (Netflix, Yahoo! Music), the
// Graph500 synthetic graphs, and edge-list file I/O so real data can be
// dropped in.
//
// Substitution note (DESIGN.md §3): the original datasets are not
// redistributable, so each preset is an RMAT configuration whose scale
// ratio and skew mirror the real graph at laptop scale. The paper itself
// validates this methodology: "the trends on the synthetic dataset are in
// line with real-world data" (§5.2).
package datasets

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// Prep selects the per-algorithm graph preparation of §4.1: PageRank keeps
// direction, BFS symmetrizes, triangle counting orients acyclically (with
// the lower-triangle RMAT parameters).
type Prep int

const (
	// PrepPageRank: directed, deduplicated.
	PrepPageRank Prep = iota
	// PrepBFS: undirected (symmetrized), deduplicated.
	PrepBFS
	// PrepTriangle: acyclic orientation, sorted adjacency, and the
	// triangle-specific RMAT parameters (A=0.45, B=C=0.15).
	PrepTriangle
)

// Preset names a dataset stand-in.
type Preset struct {
	Name        string
	Description string
	// Scale and EdgeFactor size the RMAT generator (vertices = 2^Scale).
	Scale      int
	EdgeFactor int
	Seed       int64
	// Ratings marks collaborative-filtering presets (built with
	// BuildRatings, not Build).
	Ratings bool
	// RatingsPerUser sizes rating presets.
	RatingsPerUser int
}

// The default scales keep every preset's single-node runtime in
// benchmark-friendly territory while preserving the relative sizes of the
// paper's Table 3 (Facebook < Wikipedia ≈ LiveJournal < Twitter;
// Netflix < Yahoo Music).
var presets = []Preset{
	{Name: "facebook", Description: "Facebook user-interaction stand-in (2.9M vertices / 42M edges in the paper)", Scale: 13, EdgeFactor: 14, Seed: 101},
	{Name: "wikipedia", Description: "Wikipedia link-graph stand-in (3.6M / 85M)", Scale: 14, EdgeFactor: 12, Seed: 102},
	{Name: "livejournal", Description: "LiveJournal follower-graph stand-in (4.8M / 86M)", Scale: 14, EdgeFactor: 17, Seed: 103},
	{Name: "twitter", Description: "Twitter follower-graph stand-in (61.6M / 1.47B)", Scale: 16, EdgeFactor: 24, Seed: 104},
	{Name: "graph500", Description: "Graph500 RMAT synthetic (the paper's scaling workload)", Scale: 15, EdgeFactor: 16, Seed: 105},
	{Name: "netflix", Description: "Netflix Prize ratings stand-in (480K users × 17.8K movies / 99M ratings)", Scale: 13, RatingsPerUser: 24, Seed: 106, Ratings: true},
	{Name: "yahoomusic", Description: "Yahoo! Music KDD-Cup ratings stand-in (1M users × 625K items / 253M ratings)", Scale: 14, RatingsPerUser: 28, Seed: 107, Ratings: true},
}

// Presets lists every named dataset.
func Presets() []Preset {
	out := make([]Preset, len(presets))
	copy(out, presets)
	return out
}

// ByName finds a preset.
func ByName(name string) (Preset, error) {
	for _, p := range presets {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("datasets: unknown preset %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the preset names.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}

// WithScale returns a copy of the preset resized to the given RMAT scale
// (for weak-scaling sweeps).
func (p Preset) WithScale(scale int) Preset {
	p.Scale = scale
	return p
}

// Build generates the preset's graph with the given preparation.
func (p Preset) Build(prep Prep) (*graph.CSR, error) {
	if p.Ratings {
		return nil, fmt.Errorf("datasets: %s is a ratings preset; use BuildRatings", p.Name)
	}
	return Generate(p.Scale, p.EdgeFactor, p.Seed, prep)
}

// Generate draws an RMAT graph of 2^scale vertices and about edgeFactor
// edges per vertex and prepares it for prep: the triangle preparation
// draws with the triangle RMAT parameters, the others with Graph500's,
// and PrepareEdges applies the build. It is the one place a Prep picks
// its RMAT parameters, as PrepareEdges is for its build options.
func Generate(scale, edgeFactor int, seed int64, prep Prep) (*graph.CSR, error) {
	cfg := gen.Graph500Config(scale, edgeFactor, seed)
	if prep == PrepTriangle {
		cfg = gen.TriangleConfig(scale, edgeFactor, seed)
	}
	edges, err := gen.RMAT(cfg)
	if err != nil {
		return nil, err
	}
	return PrepareEdges(cfg.NumVertices(), edges, prep)
}

// BuildRatings generates the preset's bipartite rating graph.
func (p Preset) BuildRatings() (*graph.Bipartite, error) {
	if !p.Ratings {
		return nil, fmt.Errorf("datasets: %s is a graph preset; use Build", p.Name)
	}
	return gen.Ratings(gen.DefaultRatingsConfig(p.Scale, p.RatingsPerUser, p.Seed))
}

// PrepareEdges applies a Prep recipe to a raw edge list.
func PrepareEdges(numVertices uint32, edges []graph.Edge, prep Prep) (*graph.CSR, error) {
	b := graph.NewBuilder(numVertices)
	b.AddEdges(edges)
	switch prep {
	case PrepPageRank:
		return b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	case PrepBFS:
		return b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	case PrepTriangle:
		return b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	default:
		return nil, fmt.Errorf("datasets: unknown preparation %d", prep)
	}
}

// ReadEdgeList parses whitespace-separated "src dst" lines (comments start
// with # or %). Vertex ids are assigned densely in first-seen order; the
// returned count is the number of distinct vertices.
func ReadEdgeList(r io.Reader) (uint32, []graph.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idOf := make(map[uint64]uint32)
	intern := func(raw uint64) uint32 {
		if id, ok := idOf[raw]; ok {
			return id
		}
		id := uint32(len(idOf))
		idOf[raw] = id
		return id
	}
	var edges []graph.Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("datasets: line %d: want 'src dst', got %q", line, text)
		}
		src, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("datasets: line %d: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("datasets: line %d: %v", line, err)
		}
		edges = append(edges, graph.Edge{Src: intern(src), Dst: intern(dst)})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return uint32(len(idOf)), edges, nil
}

// LoadEdgeListFile reads an edge-list file and applies the preparation.
func LoadEdgeListFile(path string, prep Prep) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, edges, err := ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", path, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("datasets: %s: no edges", path)
	}
	return PrepareEdges(n, edges, prep)
}

// ReadRatings parses whitespace-separated "user item rating" lines
// (comments start with # or %). User and item ids are assigned densely in
// first-seen order, per side.
func ReadRatings(r io.Reader) (*graph.Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	userOf := make(map[uint64]uint32)
	itemOf := make(map[uint64]uint32)
	intern := func(m map[uint64]uint32, raw uint64) uint32 {
		if id, ok := m[raw]; ok {
			return id
		}
		id := uint32(len(m))
		m[raw] = id
		return id
	}
	var ratings []graph.WeightedEdge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("datasets: line %d: want 'user item rating', got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %v", line, err)
		}
		w, err := strconv.ParseFloat(fields[2], 32)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %v", line, err)
		}
		ratings = append(ratings, graph.WeightedEdge{
			Src: intern(userOf, u), Dst: intern(itemOf, v), Weight: float32(w)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ratings) == 0 {
		return nil, fmt.Errorf("datasets: no ratings")
	}
	return graph.NewBipartite(uint32(len(userOf)), uint32(len(itemOf)), ratings)
}

// LoadRatingsFile reads a "user item rating" file.
func LoadRatingsFile(path string) (*graph.Bipartite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bp, err := ReadRatings(f)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", path, err)
	}
	return bp, nil
}

// WriteEdgeList emits "src dst" lines for the stored orientation.
func WriteEdgeList(w io.Writer, g *graph.CSR) error {
	bw := bufio.NewWriter(w)
	for v := uint32(0); v < g.NumVertices; v++ {
		for _, t := range g.Neighbors(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
