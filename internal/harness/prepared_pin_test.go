package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"graphmaze"
	"graphmaze/internal/datasets"
	"graphmaze/internal/graph"
)

// preparedDigest hashes what a kernel reads of a prepared graph: its
// offsets and targets, and the two construction records kernels branch on.
func preparedDigest(g *graph.CSR) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.NumVertices))
	h.Write(b[:])
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, t := range g.Targets {
		binary.LittleEndian.PutUint32(b[:4], t)
		h.Write(b[:4])
	}
	fmt.Fprintf(h, "weighted=%t symmetrized=%t sorted=%t", g.Weighted(), g.Symmetrized(), g.SortedAdjacency())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPreparedInputsPinned pins the graphs the module's builders prepare
// (paper §4.1: PageRank directed, BFS symmetrized, TC acyclic with the
// triangle RMAT parameters) at two (scale, seed) pairs per preparation, so
// a change to how a builder reaches its recipe cannot change a graph.
// cmd/graphserve pins its own builder under the same name.
func TestPreparedInputsPinned(t *testing.T) {
	preps := []struct {
		name string
		prep datasets.Prep
	}{{"pagerank", datasets.PrepPageRank}, {"bfs", datasets.PrepBFS}, {"tc", datasets.PrepTriangle}}
	got := map[string]string{}

	// The facade's generator, once at its default edge factor of 16.
	for _, gp := range []graphmaze.Graph500{{Scale: 9, Seed: 1}, {Scale: 11, EdgeFactor: 8, Seed: 7}} {
		for _, p := range preps {
			g, err := graphmaze.Generate(gp, p.prep)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("Generate/%s/%d/%d/%d", p.name, gp.Scale, gp.EdgeFactor, gp.Seed)] = preparedDigest(g)
		}
	}
	// Named presets at reduced scales, each with its own edge factor and seed.
	for _, pc := range []struct {
		name  string
		scale int
	}{{"facebook", 9}, {"graph500", 11}} {
		p, err := datasets.ByName(pc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range preps {
			g, err := p.WithScale(pc.scale).Build(pp.prep)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("Preset/%s/%s/%d", pp.name, pc.name, pc.scale)] = preparedDigest(g)
		}
	}
	// The experiments' input sets.
	for _, sc := range []struct {
		scale int
		seed  int64
	}{{9, 1}, {11, 42}} {
		in, err := buildInputs(sc.scale, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*graph.CSR{"pagerank": in.pr, "bfs": in.bfs, "tc": in.tc} {
			got[fmt.Sprintf("buildInputs/%s/%d/%d", name, sc.scale, sc.seed)] = preparedDigest(g)
		}
	}

	// Generate/pagerank/9/0/1 and buildInputs/pagerank/9/1 are one graph
	// (scale 9, edge factor 16, seed 1), reached by two builders.
	want := map[string]string{
		"Generate/pagerank/9/0/1":     "efca20e4462c5c10",
		"Generate/bfs/9/0/1":          "ec322fa6e8a82316",
		"Generate/tc/9/0/1":           "d6846b74cf40af2f",
		"Generate/pagerank/11/8/7":    "e550bfe8bdf9d7ea",
		"Generate/bfs/11/8/7":         "c2b35fb1e3075736",
		"Generate/tc/11/8/7":          "9126e04a1737b9d4",
		"Preset/pagerank/facebook/9":  "d0cf455f11519fe4",
		"Preset/bfs/facebook/9":       "5b38684b6e236c89",
		"Preset/tc/facebook/9":        "2857193120159eec",
		"Preset/pagerank/graph500/11": "01fb853b17d6680e",
		"Preset/bfs/graph500/11":      "abc7db90c3c81e46",
		"Preset/tc/graph500/11":       "84756c6316292e2f",
		"buildInputs/pagerank/9/1":    "efca20e4462c5c10",
		"buildInputs/bfs/9/1":         "2b3129725db7e273",
		"buildInputs/tc/9/1":          "253507ee302fe563",
		"buildInputs/pagerank/11/42":  "43b14d6148704e10",
		"buildInputs/bfs/11/42":       "f6d1ac6a7e3d00a4",
		"buildInputs/tc/11/42":        "8dde558a5681a2c7",
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: digest %s, want %s", k, d, want[k])
		}
	}
}
