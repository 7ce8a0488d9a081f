package backend

import (
	"testing"

	"graphmaze/internal/graph"
)

func buildVersioned(t *testing.T, n uint32, edges []graph.Edge, opts graph.DeltaOptions) *graph.Versioned {
	t.Helper()
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSumVecMulRebindAcrossEpochs(t *testing.T) {
	v := buildVersioned(t, 4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, graph.DeltaOptions{})
	pool := NewPool(2)
	defer pool.Close()

	// The kernel sums x over in-edges; bind to the transpose of each epoch.
	snap0 := v.Current()
	k := NewSumVecMul(pool, FromCSR(snap0.CSR().Transpose()))
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	k.Into(y, x)
	if y[1] != 1 || y[2] != 2 {
		t.Fatalf("epoch-0 product wrong: %v", y)
	}

	snap1, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	k.Rebind(FromCSR(snap1.CSR().Transpose()))
	k.Into(y, x)
	if y[1] != 1+4 {
		t.Fatalf("rebound product must see the delta edge: %v", y)
	}
}

func TestTraversalRebindGrowsScratch(t *testing.T) {
	v := buildVersioned(t, 4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}, graph.DeltaOptions{Symmetrize: true})
	pool := NewPool(2)
	defer pool.Close()
	tv := NewTraversal(pool, FromSnapshot(v.Current()), "test.level", nil)
	dist := []int32{0, -1, -1, -1}
	tv.Run(dist, 0)
	if dist[1] != 1 {
		t.Fatalf("epoch-0 traversal wrong: %v", dist)
	}

	// Grow the graph past the old scratch size and connect the new tail.
	snap, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 1, Dst: 100}, {Src: 100, Dst: 200}})
	if err != nil {
		t.Fatal(err)
	}
	tv.Rebind(FromSnapshot(snap))
	dist = make([]int32, snap.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	tv.Run(dist, 0)
	if dist[100] != 2 || dist[200] != 3 {
		t.Fatalf("rebound traversal must reach grown vertices: dist[100]=%d dist[200]=%d", dist[100], dist[200])
	}
}
