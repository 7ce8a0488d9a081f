package graphmaze

import (
	"testing"

	"graphmaze/internal/core"
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

func TestGenerateAndRunAllEnginesAgree(t *testing.T) {
	// The facade-level integration test: every engine produces the same
	// answers on shared inputs.
	prG, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 1}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	bfsG, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 1}, ForBFS)
	if err != nil {
		t.Fatal(err)
	}
	tcG, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 1}, ForTriangles)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := Native().PageRank(prG, PageRankOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	refBFS, err := Native().BFS(bfsG, BFSOptions{Source: 2})
	if err != nil {
		t.Fatal(err)
	}
	refTC, err := Native().TriangleCount(tcG, TriangleOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range Engines()[1:] {
		pr, err := e.PageRank(prG, PageRankOptions{Iterations: 5})
		if err != nil {
			t.Fatalf("%s PageRank: %v", e.Name(), err)
		}
		for i := range ref.Ranks {
			d := ref.Ranks[i] - pr.Ranks[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-6*(1+ref.Ranks[i]) {
				t.Fatalf("%s PageRank diverges at %d: %v vs %v", e.Name(), i, pr.Ranks[i], ref.Ranks[i])
			}
		}
		bfs, err := e.BFS(bfsG, BFSOptions{Source: 2})
		if err != nil {
			t.Fatalf("%s BFS: %v", e.Name(), err)
		}
		for i := range refBFS.Distances {
			if bfs.Distances[i] != refBFS.Distances[i] {
				t.Fatalf("%s BFS diverges at %d", e.Name(), i)
			}
		}
		tc, err := e.TriangleCount(tcG, TriangleOptions{})
		if err != nil {
			t.Fatalf("%s TriangleCount: %v", e.Name(), err)
		}
		if tc.Count != refTC.Count {
			t.Fatalf("%s counts %d triangles, native counts %d", e.Name(), tc.Count, refTC.Count)
		}
	}
}

func TestCollabFilterAcrossEngines(t *testing.T) {
	bp, err := GenerateRatings(8, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Engines() {
		res, err := e.CollabFilter(bp, CFOptions{K: 4, Iterations: 3, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(res.RMSE) != 3 {
			t.Fatalf("%s: RMSE entries = %d", e.Name(), len(res.RMSE))
		}
		if res.RMSE[2] > res.RMSE[0] {
			t.Errorf("%s: RMSE rose: %v", e.Name(), res.RMSE)
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
