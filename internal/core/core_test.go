package core

import (
	"math"
	"testing"

	"graphmaze/internal/graph"
)

// paperGraph is Figure 2 of the paper: 0→1, 0→2, 1→2, 1→3, 2→3.
func paperGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPageRankOptionsDefaults(t *testing.T) {
	opt, err := CheckPageRankInput(paperGraph(t), PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.RandomJump != 0.3 || opt.Iterations != 10 {
		t.Errorf("defaults = %+v", opt)
	}
}

func TestPageRankOptionsValidation(t *testing.T) {
	for _, jump := range []float64{1.5, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := CheckPageRankInput(paperGraph(t), PageRankOptions{RandomJump: jump}); err == nil {
			t.Errorf("accepted jump %v", jump)
		}
	}
	if _, err := CheckPageRankInput(paperGraph(t), PageRankOptions{Iterations: -1}); err == nil {
		t.Error("accepted negative iterations")
	}
	if _, err := CheckPageRankInput(nil, PageRankOptions{}); err == nil {
		t.Error("accepted nil graph")
	}
}

func TestBFSInputValidation(t *testing.T) {
	g := paperGraph(t)
	if _, err := CheckBFSInput(g, BFSOptions{Source: 99}); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, err := CheckBFSInput(nil, BFSOptions{}); err == nil {
		t.Error("accepted nil graph")
	}
}

func TestTriangleInputValidation(t *testing.T) {
	g := paperGraph(t)
	if _, err := CheckTriangleInput(g, TriangleOptions{}); err == nil {
		t.Error("accepted unsorted adjacency")
	}
	g.SortAdjacency()
	if _, err := CheckTriangleInput(g, TriangleOptions{}); err != nil {
		t.Errorf("rejected sorted graph: %v", err)
	}
}

func TestCFOptionsDefaults(t *testing.T) {
	bp, err := graph.NewBipartite(2, 2, []graph.WeightedEdge{{Src: 0, Dst: 0, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := CheckCFInput(bp, CFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.K != 16 || opt.Iterations != 5 || opt.LambdaP != 0.05 {
		t.Errorf("defaults = %+v", opt)
	}
	sgdOpt, _ := CheckCFInput(bp, CFOptions{Method: SGD})
	if sgdOpt.LearningRate <= opt.LearningRate {
		t.Error("SGD default rate should exceed GD default rate")
	}
}

func TestCFOptionsValidation(t *testing.T) {
	bp, _ := graph.NewBipartite(1, 1, []graph.WeightedEdge{{Src: 0, Dst: 0, Weight: 1}})
	for _, bad := range []CFOptions{
		{K: -1},
		{Iterations: -2},
		{LearningRate: -1},
		{StepDecay: 2},
		{LambdaP: -1},
		{LearningRate: math.NaN()},
		{LearningRate: math.Inf(1)},
		{StepDecay: math.NaN()},
		{LambdaP: math.NaN()},
		{LambdaQ: math.NaN()},
		{LambdaQ: math.Inf(1)},
	} {
		if _, err := CheckCFInput(bp, bad); err == nil {
			t.Errorf("accepted bad options %+v", bad)
		}
	}
	if _, err := CheckCFInput(nil, CFOptions{}); err == nil {
		t.Error("accepted nil ratings")
	}
}

func TestRefPageRankPaperGraph(t *testing.T) {
	g := paperGraph(t)
	pr := RefPageRank(g, PageRankOptions{Iterations: 1})
	// After one iteration from PR=1: vertex 0 has no in-edges → r = 0.3.
	if math.Abs(pr[0]-0.3) > 1e-12 {
		t.Errorf("pr[0] = %v, want 0.3", pr[0])
	}
	// Vertex 1 receives from 0 (deg 2): 0.3 + 0.7·(1/2) = 0.65.
	if math.Abs(pr[1]-0.65) > 1e-12 {
		t.Errorf("pr[1] = %v, want 0.65", pr[1])
	}
	// Vertex 3 receives from 1 (deg 2) and 2 (deg 1): 0.3 + 0.7·(1.5) = 1.35.
	if math.Abs(pr[3]-1.35) > 1e-12 {
		t.Errorf("pr[3] = %v, want 1.35", pr[3])
	}
}

func TestRefPageRankSink(t *testing.T) {
	// Isolated vertex: rank settles at r.
	g, _ := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	pr := RefPageRank(g, PageRankOptions{Iterations: 20})
	if math.Abs(pr[0]-0.3) > 1e-9 {
		t.Errorf("source-only vertex rank = %v, want 0.3", pr[0])
	}
}

func TestRefBFS(t *testing.T) {
	// Path 0-1-2-3 plus isolated 4, symmetrized.
	b := graph.NewBuilder(5)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := RefBFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	if !EqualDistances(dist, want) {
		t.Errorf("dist = %v, want %v", dist, want)
	}
	dist2 := RefBFS(g, 2)
	want2 := []int32{2, 1, 0, 1, -1}
	if !EqualDistances(dist2, want2) {
		t.Errorf("dist from 2 = %v, want %v", dist2, want2)
	}
}

func TestRefTriangleCount(t *testing.T) {
	// K4 has 4 triangles. Orient acyclically.
	b := graph.NewBuilder(4)
	for u := uint32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdges([]graph.Edge{{Src: u, Dst: v}})
		}
	}
	g, err := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := RefTriangleCount(g); got != 4 {
		t.Errorf("K4 triangles = %d, want 4", got)
	}
}

func TestRefTriangleCountPaperGraph(t *testing.T) {
	// The paper's Figure 2 graph has 2 triangles (0,1,2) and (1,2,3).
	g := paperGraph(t)
	g.SortAdjacency()
	if got := RefTriangleCount(g); got != 2 {
		t.Errorf("paper graph triangles = %d, want 2", got)
	}
}

func TestRefTriangleCountTriangleFree(t *testing.T) {
	// A path has no triangles.
	b := graph.NewBuilder(5)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}})
	g, _ := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if got := RefTriangleCount(g); got != 0 {
		t.Errorf("path triangles = %d, want 0", got)
	}
}

func TestRefCollabFilterGDConverges(t *testing.T) {
	ratings := []graph.WeightedEdge{
		{Src: 0, Dst: 0, Weight: 5}, {Src: 0, Dst: 1, Weight: 3},
		{Src: 1, Dst: 0, Weight: 4}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 2}, {Src: 2, Dst: 2, Weight: 5},
	}
	bp, err := graph.NewBipartite(3, 3, ratings)
	if err != nil {
		t.Fatal(err)
	}
	res := RefCollabFilterGD(bp, CFOptions{K: 4, Iterations: 50, LearningRate: 0.02, Seed: 7})
	if len(res.RMSE) != 50 {
		t.Fatalf("RMSE trajectory has %d entries", len(res.RMSE))
	}
	if !MonotonicallyNonIncreasing(res.RMSE, 1e-6) {
		t.Errorf("GD RMSE not non-increasing: %v", res.RMSE[:5])
	}
	if res.RMSE[49] >= res.RMSE[0]*0.9 {
		t.Errorf("GD barely converged: first %v last %v", res.RMSE[0], res.RMSE[49])
	}
}

func TestInitFactorsDeterministicAndBounded(t *testing.T) {
	a := InitFactors(10, 8, 3)
	b := InitFactors(10, 8, 3)
	c := InitFactors(10, 8, 4)
	if len(a) != 80 {
		t.Fatalf("len = %d", len(a))
	}
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different factors")
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("factor %v out of [0,1]", a[i])
		}
	}
	if !diff {
		t.Error("different seeds produced identical factors")
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil) = %v", got)
	}
}

func TestRMSEZeroForPerfectFactors(t *testing.T) {
	// One user, one item, rating = p·q exactly.
	bp, _ := graph.NewBipartite(1, 1, []graph.WeightedEdge{{Src: 0, Dst: 0, Weight: 6}})
	u := []float32{2, 1}
	v := []float32{2, 2}
	if got := RMSE(bp, 2, u, v); got != 0 {
		t.Errorf("RMSE = %v, want 0", got)
	}
}

func TestComparePageRank(t *testing.T) {
	if d := ComparePageRank([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("identical vectors differ by %v", d)
	}
	if d := ComparePageRank([]float64{1}, []float64{1.1}); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("relative diff = %v, want 0.1", d)
	}
}

func TestMonotonicallyNonIncreasing(t *testing.T) {
	if !MonotonicallyNonIncreasing([]float64{3, 2, 2, 1}, 0) {
		t.Error("decreasing sequence rejected")
	}
	if MonotonicallyNonIncreasing([]float64{1, 2}, 0.5) {
		t.Error("rising sequence accepted")
	}
	if !MonotonicallyNonIncreasing([]float64{1, 1.4}, 0.5) {
		t.Error("rise within tolerance rejected")
	}
}

func TestCFMethodString(t *testing.T) {
	if GradientDescent.String() != "gd" || SGD.String() != "sgd" {
		t.Error("CFMethod names wrong")
	}
}

func TestValidateBFSAcceptsReference(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 1, Dst: 3}})
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := RefBFS(g, 0)
	if err := ValidateBFS(g, 0, dist); err != nil {
		t.Errorf("reference BFS rejected: %v", err)
	}
}

func TestValidateBFSRejectsCorruption(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	g, _ := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	good := RefBFS(g, 0)

	corrupt := func(mutate func(d []int32)) []int32 {
		d := make([]int32, len(good))
		copy(d, good)
		mutate(d)
		return d
	}
	cases := []struct {
		name string
		dist []int32
	}{
		{"wrong source distance", corrupt(func(d []int32) { d[0] = 1 })},
		{"level skip", corrupt(func(d []int32) { d[3] = 5 })},
		{"phantom zero", corrupt(func(d []int32) { d[2] = 0 })},
		{"reached next to unreached", corrupt(func(d []int32) { d[1] = -1 })},
		{"invalid negative", corrupt(func(d []int32) { d[2] = -7 })},
		{"wrong length", good[:3]},
	}
	for _, c := range cases {
		if err := ValidateBFS(g, 0, c.dist); err == nil {
			t.Errorf("%s: validation accepted corrupted result", c.name)
		}
	}
	if err := ValidateBFS(g, 99, good); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestValidateBFSAllEnginesWouldPass(t *testing.T) {
	// The reference itself on a larger random graph.
	b := graph.NewBuilder(256)
	state := uint64(7)
	for i := 0; i < 1500; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		b.AddEdges([]graph.Edge{{Src: uint32(state % 256), Dst: uint32((state >> 8) % 256)}})
	}
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := RefBFS(g, 5)
	if err := ValidateBFS(g, 5, dist); err != nil {
		t.Errorf("reference BFS on random graph rejected: %v", err)
	}
}
