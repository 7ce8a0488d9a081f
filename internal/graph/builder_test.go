package graph

import "testing"

func TestBuilderKeepDirection(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdges([]Edge{{0, 1}, {1, 2}, {0, 1}}) // one duplicate
	if len(b.edges) != 3 {
		t.Fatalf("raw edges = %d", len(b.edges))
	}
	g, err := b.Build(BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("expected edges missing")
	}
}

func TestBuilderSymmetrize(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdges([]Edge{{0, 1}, {1, 2}})
	g, err := b.Build(BuildOptions{Orientation: Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !g.HasEdge(e.Src, e.Dst) {
			t.Errorf("missing symmetrized edge %v", e)
		}
	}
}

func TestBuilderSymmetrizeDedupsReciprocal(t *testing.T) {
	// Input already contains both directions; symmetrize + dedup must not
	// double them.
	b := NewBuilder(2)
	b.AddEdges([]Edge{{0, 1}, {1, 0}})
	g, err := b.Build(BuildOptions{Orientation: Symmetrize, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuilderOrientAcyclic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdges([]Edge{{3, 1}, {1, 3}, {2, 0}, {1, 1}})
	g, err := b.Build(BuildOptions{Orientation: OrientAcyclic, Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	// (3,1) and (1,3) collapse to (1,3); (2,0)→(0,2); self-loop dropped.
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(1, 3) || !g.HasEdge(0, 2) {
		t.Error("acyclic orientation produced wrong edges")
	}
	// Every edge must go small→large.
	for _, e := range g.Edges() {
		if e.Src >= e.Dst {
			t.Errorf("edge %v not oriented small→large", e)
		}
	}
}

func TestBuilderDropSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdges([]Edge{{0, 0}, {0, 1}, {1, 1}})
	g, err := b.Build(BuildOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBuilderSymmetrizeDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdges([]Edge{{0, 0}, {0, 1}})
	g, err := b.Build(BuildOptions{Orientation: Symmetrize, Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdges([]Edge{{0, 7}})
	if _, err := b.Build(BuildOptions{}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestBuilderDedupSortsAdjacency(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdges([]Edge{{0, 3}, {0, 1}, {0, 2}})
	g, err := b.Build(BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.SortedAdjacency() {
		t.Error("dedup should leave adjacency sorted")
	}
}

func TestNewBipartite(t *testing.T) {
	r := []WeightedEdge{{0, 1, 5}, {0, 0, 3}, {1, 1, 4}}
	bp, err := NewBipartite(2, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumRatings() != 3 {
		t.Fatalf("NumRatings = %d, want 3", bp.NumRatings())
	}
	if bp.ByUser.NumVertices != 2 || bp.ByItem.NumVertices != 2 {
		t.Error("orientation vertex counts wrong")
	}
	// Transposed weight must follow.
	adj, w := bp.ByItem.Neighbors(1), bp.ByItem.EdgeWeights(1)
	got := map[uint32]float32{}
	for i, u := range adj {
		got[u] = w[i]
	}
	if got[0] != 5 || got[1] != 4 {
		t.Errorf("ByItem(1) weights = %v", got)
	}
	if err := bp.ByUser.Validate(); err != nil {
		t.Errorf("ByUser: %v", err)
	}
	if err := bp.ByItem.Validate(); err != nil {
		t.Errorf("ByItem: %v", err)
	}
}

func TestNewBipartiteDuplicateKeepsLast(t *testing.T) {
	bp, err := NewBipartite(1, 1, []WeightedEdge{{0, 0, 1}, {0, 0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumRatings() != 1 {
		t.Fatalf("NumRatings = %d, want 1", bp.NumRatings())
	}
	if w := bp.ByUser.EdgeWeights(0)[0]; w != 9 {
		t.Errorf("duplicate rating kept %v, want 9 (last)", w)
	}
}

func TestNewBipartiteValidation(t *testing.T) {
	if _, err := NewBipartite(0, 1, nil); err == nil {
		t.Error("expected error for 0 users")
	}
	if _, err := NewBipartite(1, 1, []WeightedEdge{{5, 0, 1}}); err == nil {
		t.Error("expected error for out-of-range user")
	}
	if _, err := NewBipartite(1, 1, []WeightedEdge{{0, 5, 1}}); err == nil {
		t.Error("expected error for out-of-range item")
	}
}
