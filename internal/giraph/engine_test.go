package giraph

import (
	"math"
	"slices"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/trace"
)

func fixtureDirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 31))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureUndirected(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(8, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 8)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fixtureAcyclic(t testing.TB) *graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.TriangleConfig(8, 8, 33))
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
	bp, err := gen.Ratings(gen.DefaultRatingsConfig(8, 16, 34))
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// TestPageRankCluster: a cluster run stays under Netty's bandwidth
// ceiling, and 4 workers on 48 provisioned threads keep CPU utilization
// low by design.
func TestPageRankCluster(t *testing.T) {
	g := fixtureDirected(t)
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 4, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Stats.Report
	if rep.PeakNetworkBandwidth > cluster.Netty().Bandwidth {
		t.Errorf("peak BW %v exceeds netty ceiling", rep.PeakNetworkBandwidth)
	}
	if rep.CPUUtilization > 0.25 {
		t.Errorf("CPU utilization %v unrealistically high for Giraph", rep.CPUUtilization)
	}
}

// TestLoweredBFSSuperstepsMatchStock: the lowered BFS must report what
// the stock runtime observes — here on a one-node cluster, which runs the
// stock superstep loop — superstep for superstep: the same active-vertex
// and message counts and the same modeled buffer footprint.
func TestLoweredBFSSuperstepsMatchStock(t *testing.T) {
	g := fixtureUndirected(t)
	steps := func(x core.Exec) [][3]float64 {
		t.Helper()
		if _, err := New().BFS(g, core.BFSOptions{Source: 7, Exec: x}); err != nil {
			t.Fatal(err)
		}
		var out [][3]float64
		for _, ev := range x.Tracer().Events() {
			if ev.Cat == "giraph.superstep" {
				out = append(out, [3]float64{ev.Args["active"], ev.Args["messages"], ev.Args["buffered_bytes"]})
			}
		}
		return out
	}
	lowered := steps(core.Exec{Trace: trace.New()})
	stock := steps(core.Exec{Trace: trace.New(), Cluster: &cluster.Config{Nodes: 1}})
	if len(lowered) < 3 || !slices.Equal(lowered, stock) {
		t.Errorf("per-superstep (active, messages, buffered bytes):\nlowered %v\nstock   %v", lowered, stock)
	}
}

// TestLoweredPageRankSuperstepsMatchStock: the lowered PageRank (one
// shared backend sweep per superstep after the first) must equal the stock
// runtime on a one-node cluster — the ranks bit for bit, since the stock
// runtime delivers messages in ascending sender order and the sweep folds
// in-neighbours in that order, and the per-superstep active-vertex and
// message counts and modeled buffer footprint.
func TestLoweredPageRankSuperstepsMatchStock(t *testing.T) {
	g := fixtureDirected(t)
	run := func(x core.Exec) ([]float64, [][3]float64) {
		t.Helper()
		res, err := New().PageRank(g, core.PageRankOptions{Iterations: 6, RandomJump: 0.3, Exec: x})
		if err != nil {
			t.Fatal(err)
		}
		var steps [][3]float64
		for _, ev := range x.Tracer().Events() {
			if ev.Cat == "giraph.superstep" {
				steps = append(steps, [3]float64{ev.Args["active"], ev.Args["messages"], ev.Args["buffered_bytes"]})
			}
		}
		return res.Ranks, steps
	}
	lowRanks, lowSteps := run(core.Exec{Trace: trace.New()})
	stockRanks, stockSteps := run(core.Exec{Trace: trace.New(), Cluster: &cluster.Config{Nodes: 1}})
	if len(lowSteps) != 7 || !slices.Equal(lowSteps, stockSteps) {
		t.Errorf("per-superstep (active, messages, buffered bytes):\nlowered %v\nstock   %v", lowSteps, stockSteps)
	}
	if len(lowRanks) != len(stockRanks) {
		t.Fatalf("%d lowered ranks, %d stock", len(lowRanks), len(stockRanks))
	}
	for v := range lowRanks {
		if math.Float64bits(lowRanks[v]) != math.Float64bits(stockRanks[v]) {
			t.Fatalf("rank[%d]: lowered %v, stock %v", v, lowRanks[v], stockRanks[v])
		}
	}
}

// TestLoweredBFSAboveSerialCutover: the lowered BFS on a graph above the
// backend's 2^19-edge serial cutover, where its wide supersteps claim in
// parallel on the pool and come back in ascending order, must equal the
// serial reference BFS from the hub: the distances, and one superstep per
// level plus the quiet one.
func TestLoweredBFSAboveSerialCutover(t *testing.T) {
	edges, err := gen.RMAT(gen.Graph500Config(16, 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 16)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() <= 1<<19 {
		t.Fatalf("fixture: %d edges do not clear the serial cutover", g.NumEdges())
	}
	hub := uint32(0)
	for v := uint32(1); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	want := core.RefBFS(g, hub)
	res, err := New().BFS(g, core.BFSOptions{Source: hub})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) || res.Stats.Iterations != int(slices.Max(want))+2 {
		t.Errorf("%d supersteps, want %d; distances equal: %v", res.Stats.Iterations, int(slices.Max(want))+2, core.EqualDistances(want, res.Distances))
	}
}

func TestBFSCluster(t *testing.T) {
	g := fixtureUndirected(t)
	want := core.RefBFS(g, 7)
	res, err := New().BFS(g, core.BFSOptions{Source: 7, Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) {
		t.Error("cluster distances differ from reference")
	}
}

// TestTriangleCountMatchesReference: the unsplit engine (one superstep
// for the whole neighbour exchange) counts the reference's triangles.
func TestTriangleCountMatchesReference(t *testing.T) {
	g := fixtureAcyclic(t)
	res, err := NewUnsplit().TriangleCount(g, core.TriangleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := core.RefTriangleCount(g); res.Count != want {
		t.Errorf("count = %d, want %d", res.Count, want)
	}
}

func TestTriangleClusterAndPhasedMemory(t *testing.T) {
	g := fixtureAcyclic(t)
	want := core.RefTriangleCount(g)

	run := func(e *Engine) *core.TriangleResult {
		res, err := e.TriangleCount(g, core.TriangleOptions{Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("count = %d, want %d", res.Count, want)
		}
		return res
	}
	unsplit := run(NewUnsplit())
	split := run(New())
	// Phased supersteps must shrink the peak memory footprint (§6.1.3).
	if split.Stats.Report.MemoryFootprintBytes >= unsplit.Stats.Report.MemoryFootprintBytes {
		t.Errorf("phased supersteps did not reduce memory: %d vs %d",
			split.Stats.Report.MemoryFootprintBytes, unsplit.Stats.Report.MemoryFootprintBytes)
	}
}

func TestRunQuiescence(t *testing.T) {
	// All vertices halt in superstep 0 with no messages → exactly 1
	// superstep.
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}})
	job := &Job{
		Graph: g,
		Init:  func(uint32) any { return nil },
		Compute: func(ctx *Context, _ []any) {
			ctx.VoteToHalt()
		},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Errorf("supersteps = %d, want 1", res.Supersteps)
	}
}

func TestMessageReactivatesHaltedVertex(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	var visits [2]int
	job := &Job{
		Graph:         g,
		Init:          func(uint32) any { return nil },
		MaxSupersteps: 3,
		Compute: func(ctx *Context, msgs []any) {
			visits[ctx.ID()]++
			if ctx.Superstep() == 0 && ctx.ID() == 0 {
				ctx.SendMessage(1, int32(99))
			}
			ctx.VoteToHalt()
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	// Vertex 1: superstep 0 (initially active) + superstep 1 (reactivated).
	if visits[1] != 2 {
		t.Errorf("vertex 1 visited %d times, want 2", visits[1])
	}
}

func TestPeakBufferedBytesTracked(t *testing.T) {
	g := fixtureDirected(t)
	job := &Job{
		Graph:         g,
		Init:          func(uint32) any { return nil },
		MaxSupersteps: 1,
		MessageBytes:  func(any) int { return 8 },
		Compute: func(ctx *Context, _ []any) {
			ctx.SendMessageToAllEdges(float64(1))
			ctx.VoteToHalt()
		},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := g.NumEdges() * javaObjectOverhead
	if res.PeakBufferedBytes < wantMin {
		t.Errorf("PeakBufferedBytes = %d, want ≥ %d", res.PeakBufferedBytes, wantMin)
	}
}
