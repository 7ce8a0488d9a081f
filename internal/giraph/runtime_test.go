package giraph

import (
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/graph"
)

func TestCoordinationOverheadInWallSeconds(t *testing.T) {
	// The modeled Hadoop/ZooKeeper cost must appear in reported wall
	// time: a job with S supersteps costs at least S × coordinationSeconds.
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}})
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	supersteps := 6 // iterations + 1
	minWall := float64(supersteps) * coordinationSeconds
	if res.Stats.WallSeconds < minWall {
		t.Errorf("WallSeconds = %v, want ≥ %v (coordination model)", res.Stats.WallSeconds, minWall)
	}
}

func TestContextAccessors(t *testing.T) {
	g, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{Src: 0, Dst: 1, Weight: 2.5}, {Src: 0, Dst: 2, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	var sawWeights []float32
	var sawN uint32
	job := &Job{
		Graph:         g,
		Init:          func(uint32) any { return nil },
		MaxSupersteps: 1,
		Compute: func(ctx *Context, _ []any) {
			if ctx.ID() == 0 {
				sawWeights = append(sawWeights, ctx.EdgeWeights()...)
				sawN = ctx.rt.g.NumVertices
				if ctx.Superstep() != 0 {
					t.Errorf("Superstep = %d", ctx.Superstep())
				}
				if len(ctx.OutEdges()) != 2 {
					t.Errorf("OutEdges = %v", ctx.OutEdges())
				}
			}
			ctx.VoteToHalt()
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if sawN != 3 {
		t.Errorf("NumVertices = %d", sawN)
	}
	if len(sawWeights) != 2 {
		t.Errorf("EdgeWeights = %v", sawWeights)
	}
}

func TestCounterAggregation(t *testing.T) {
	g, _ := graph.FromEdges(8, []graph.Edge{{Src: 0, Dst: 1}})
	job := &Job{
		Graph:         g,
		Init:          func(uint32) any { return nil },
		MaxSupersteps: 1,
		Compute: func(ctx *Context, _ []any) {
			ctx.AddToCounter(int64(ctx.ID()))
			ctx.VoteToHalt()
		},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter != 28 { // 0+1+…+7
		t.Errorf("Counter = %d, want 28", res.Counter)
	}
}

func TestRunNilGraph(t *testing.T) {
	if _, err := Run(&Job{}); err == nil {
		t.Error("accepted nil graph")
	}
}

func TestSplitSuperstepsPreserveSemantics(t *testing.T) {
	// A message-heavy job must produce identical results regardless of
	// how many chunks each superstep is split into.
	g := fixtureDirected(t)
	run := func(split int) []float64 {
		e := &Engine{splitSupersteps: split}
		res, err := e.PageRank(g, core.PageRankOptions{Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ranks
	}
	a, b := run(1), run(7)
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-12 {
			t.Fatalf("rank %d differs across split settings: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestValuesBoxedPerVertex(t *testing.T) {
	// SetValue on one vertex must not leak to another.
	g, _ := graph.FromEdges(2, nil)
	job := &Job{
		Graph:         g,
		Init:          func(id uint32) any { return int(id) },
		MaxSupersteps: 1,
		Compute: func(ctx *Context, _ []any) {
			ctx.SetValue(ctx.Value().(int) * 10)
			ctx.VoteToHalt()
		},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].(int) != 0 || res.Values[1].(int) != 10 {
		t.Errorf("values = %v", res.Values)
	}
}
