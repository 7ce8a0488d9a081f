package graphmaze

import (
	"math"
	"slices"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
	"graphmaze/internal/gen"
)

func TestEnginesRoster(t *testing.T) {
	engines := Engines()
	if len(engines) != 6 {
		t.Fatalf("Engines() returned %d", len(engines))
	}
	want := []string{"Native", "CombBLAS", "GraphLab", "SociaLite", "Giraph", "Galois"}
	for i, e := range engines {
		if e.Name() != want[i] {
			t.Errorf("engine %d = %q, want %q", i, e.Name(), want[i])
		}
	}
}

func TestEngineByName(t *testing.T) {
	e, err := EngineByName("graphlab")
	if err != nil || e.Name() != "GraphLab" {
		t.Errorf("EngineByName(graphlab) = %v, %v", e, err)
	}
	if _, err := EngineByName("spark"); err == nil {
		t.Error("accepted unknown engine")
	}
}

// TestInEdgeViewKeepsPageRankBits: every engine's PageRank reads its
// in-edges through graph.CSR.In, which hands a symmetrized, sorted,
// unweighted graph its own rows and transposes any other. A Symmetrize
// build and a KeepDirection build of one edge list that already holds
// every reverse are one graph with two construction records, so each
// engine's ranks on the two must be bit-identical, at 1 node and at 4.
func TestInEdgeViewKeepsPageRankBits(t *testing.T) {
	const scale = 9
	edges, err := gen.RMAT(gen.Graph500Config(scale, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	doubled := slices.Clip(edges)
	for _, e := range edges {
		doubled = append(doubled, Edge{Src: e.Dst, Dst: e.Src})
	}
	sym, err := datasets.PrepareEdges(1<<scale, doubled, datasets.PrepBFS)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := datasets.PrepareEdges(1<<scale, doubled, datasets.PrepPageRank)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sym.Offsets, dir.Offsets) || !slices.Equal(sym.Targets, dir.Targets) {
		t.Fatal("the two builds of the doubled edge list differ")
	}
	if sym.In() != sym {
		t.Error("In() of the Symmetrize build is not the graph itself")
	}
	if dir.In() == dir {
		t.Error("In() of the KeepDirection build is the graph itself")
	}
	for _, e := range Engines() {
		for _, nodes := range []int{1, 4} {
			var x Exec
			if nodes > 1 {
				if !e.Capabilities().MultiNode {
					continue
				}
				x.Cluster = &ClusterConfig{Nodes: nodes}
			}
			ranks := func(g *Graph) []float64 {
				res, err := e.PageRank(g, PageRankOptions{Iterations: 6, Exec: x})
				if err != nil {
					t.Fatalf("%s/%d-node: %v", e.Name(), nodes, err)
				}
				return res.Ranks
			}
			want, got := ranks(dir), ranks(sym)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Errorf("%s/%d-node: rank of %d is %v on the Symmetrize build, %v on the KeepDirection build",
						e.Name(), nodes, v, got[v], want[v])
					break
				}
			}
		}
	}
}

func TestClusterRunThroughFacade(t *testing.T) {
	g, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 4}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Native().PageRank(g, PageRankOptions{Iterations: 3,
		Exec: Exec{Cluster: &ClusterConfig{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Simulated || res.Stats.Report.Nodes != 4 {
		t.Errorf("cluster stats = %+v", res.Stats)
	}
}

func TestDatasets(t *testing.T) {
	g, err := Dataset("facebook", ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Error("empty dataset")
	}
	if _, err := Dataset("unknown", ForPageRank); err == nil {
		t.Error("accepted unknown dataset")
	}
	bp, err := RatingsDataset("netflix")
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumRatings() == 0 {
		t.Error("empty ratings dataset")
	}
}

// TestCapabilitiesMatchPaperTable2: each engine's distribution, whether
// its model can express SGD, and the programming model it is written in.
func TestCapabilitiesMatchPaperTable2(t *testing.T) {
	want := map[string]core.Capabilities{
		"Native":    {MultiNode: true, SGD: true, ProgrammingModel: "native"},
		"CombBLAS":  {MultiNode: true, SGD: false, ProgrammingModel: "sparse matrix"},
		"GraphLab":  {MultiNode: true, SGD: false, ProgrammingModel: "vertex"},
		"SociaLite": {MultiNode: true, SGD: false, ProgrammingModel: "datalog"},
		"Giraph":    {MultiNode: true, SGD: false, ProgrammingModel: "vertex"},
		"Galois":    {MultiNode: false, SGD: true, ProgrammingModel: "task"},
	}
	for _, e := range Engines() {
		if got := e.Capabilities(); got != want[e.Name()] {
			t.Errorf("%s capabilities = %+v, want %+v", e.Name(), got, want[e.Name()])
		}
	}
}
