package socialite

import (
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

func fixtureDirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 51))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureUndirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 52))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureAcyclic(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(8, 8, 53))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureRatings(t testing.TB) *graph.Bipartite {
	t.Helper()
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 54))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestVecTableBasics(t *testing.T) {
	tab := NewVecTable("T", 10)
	if _, ok := tab.Get(3); ok {
		t.Error("fresh table has key")
	}
	tab.Put(3, 1.5)
	if v, ok := tab.Get(3); !ok || v != 1.5 {
		t.Errorf("Get = %v,%v", v, ok)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestFoldAggregations(t *testing.T) {
	tab := NewVecTable("T", 4)
	// SUM accumulates.
	tab.fold(AggSum, 0, 1)
	tab.fold(AggSum, 0, 10)
	if v, _ := tab.Get(0); v != 11 {
		t.Errorf("SUM = %v", v)
	}
	// MIN keeps the smaller and reports change.
	if !tab.fold(AggMin, 1, 5) {
		t.Error("first MIN not a change")
	}
	if tab.fold(AggMin, 1, 9) {
		t.Error("larger MIN reported change")
	}
	if !tab.fold(AggMin, 1, 2) {
		t.Error("smaller MIN not a change")
	}
	// COUNT increments.
	tab.fold(AggCount, 2, 1)
	tab.fold(AggCount, 2, 1)
	if v, _ := tab.Get(2); v != 2 {
		t.Errorf("COUNT = %v", v)
	}
	// ASSIGN overwrites.
	tab.fold(AggAssign, 3, 7)
	tab.fold(AggAssign, 3, 8)
	if v, _ := tab.Get(3); v != 8 {
		t.Errorf("ASSIGN = %v", v)
	}
}

func TestRuleValidation(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}})
	edge := NewEdgeTable("E", g)
	head := NewVecTable("H", 3)
	// Atom joins on an unbound key slot.
	bad := &Rule{
		Name: "bad", KeySlots: 3, ValSlots: 1,
		Driver: Driver{Vec: &VecAtom{Table: head, KeySlot: 0, ValSlot: 0}},
		Atoms:  []Atom{{Edge: &EdgeAtom{Table: edge, SrcSlot: 2, DstSlot: 1, WeightSlot: -1}}},
		Head:   Head{Table: head, Agg: AggSum, KeySlot: 1, ValSlot: 0},
	}
	if err := bad.Validate(); err == nil {
		t.Error("accepted unbound join key")
	}
	// No driver.
	if err := (&Rule{Name: "x", Head: Head{Table: head}}).Validate(); err == nil {
		t.Error("accepted missing driver")
	}
	// No head.
	if err := (&Rule{Name: "x"}).Validate(); err == nil {
		t.Error("accepted missing head")
	}
}

func TestNetworkOptimizationSpeedsUpPageRank(t *testing.T) {
	// Table 7: the multi-socket + batching optimization speeds up the
	// network-bound algorithms (paper: 2.4× for PageRank on 4 nodes).
	g := fixtureDirected(t)
	opt := core.PageRankOptions{Iterations: 5, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}}
	before, err := NewUnoptimized().PageRank(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	after, err := New().PageRank(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Report.NetworkSeconds >= before.Stats.Report.NetworkSeconds {
		t.Errorf("optimized network time %v not below unoptimized %v",
			after.Stats.Report.NetworkSeconds, before.Stats.Report.NetworkSeconds)
	}
}

func TestBFSCluster(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 11)
	res, err := New().BFS(g, core.BFSOptions{Source: 11,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("cluster distances differ from reference")
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}})
	g, _ := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true})
	res, err := New().BFS(g, core.BFSOptions{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, -1, -1, -1}
	if !core.EqualDistances(res.Distances, want) {
		t.Errorf("distances = %v, want %v", res.Distances, want)
	}
}

func TestEdgeTableContains(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 1}})
	g.SortAdjacency()
	e := NewEdgeTable("E", g)
	if !e.Contains(0, 1) || !e.Contains(0, 2) {
		t.Error("Contains misses present edges")
	}
	if e.Contains(1, 0) || e.Contains(2, 2) {
		t.Error("Contains finds absent edges")
	}
}

func TestAggString(t *testing.T) {
	for agg, want := range map[Agg]string{AggSum: "$SUM", AggMin: "$MIN", AggCount: "$INC", AggAssign: "assign"} {
		if agg.String() != want {
			t.Errorf("%d.String() = %q, want %q", agg, agg.String(), want)
		}
	}
}
