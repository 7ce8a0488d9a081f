package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// diamond returns the 4-vertex example graph from the paper's Figure 2:
// 0→1, 0→2, 1→2, 1→3, 2→3.
func diamond(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond(t)
	if g.NumVertices != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices)
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	wantDeg := []int64{2, 2, 1, 0}
	for v, want := range wantDeg {
		if got := g.Degree(uint32(v)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNeighbors(t *testing.T) {
	g := diamond(t)
	got := g.Neighbors(1)
	if len(got) != 2 {
		t.Fatalf("Neighbors(1) = %v, want 2 entries", got)
	}
	seen := map[uint32]bool{got[0]: true, got[1]: true}
	if !seen[2] || !seen[3] {
		t.Errorf("Neighbors(1) = %v, want {2,3}", got)
	}
	if n := g.Neighbors(3); len(n) != 0 {
		t.Errorf("Neighbors(3) = %v, want empty", n)
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {3, 0, false}, {0, 3, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v (unsorted)", c.u, c.v, got, c.want)
		}
	}
	g.SortAdjacency()
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v (sorted)", c.u, c.v, got, c.want)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(t)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose Validate: %v", err)
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edges = %d, want %d", tr.NumEdges(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !tr.HasEdge(e.Dst, e.Src) {
			t.Errorf("transpose missing edge (%d,%d)", e.Dst, e.Src)
		}
	}
	if !tr.SortedAdjacency() {
		t.Error("transpose should produce sorted adjacency")
	}
	// Double transpose restores the original edge set.
	back := tr.Transpose()
	for _, e := range g.Edges() {
		if !back.HasEdge(e.Src, e.Dst) {
			t.Errorf("double transpose lost edge (%d,%d)", e.Src, e.Dst)
		}
	}
}

// transposeSerial is the single-pass counting sort Transpose ran before
// its count and scatter passes moved onto a pool, kept as the oracle the
// parallel pass must match array for array.
func transposeSerial(g *CSR) *CSR {
	n := g.targetSpace
	offsets := make([]int64, n+1)
	for _, t := range g.Targets {
		offsets[t+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(g.Targets))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Weights))
	}
	cursor := make([]int64, n)
	for v := uint32(0); v < g.NumVertices; v++ {
		start, end := g.Offsets[v], g.Offsets[v+1]
		for i := start; i < end; i++ {
			t := g.Targets[i]
			pos := offsets[t] + cursor[t]
			targets[pos] = v
			if weights != nil {
				weights[pos] = g.Weights[i]
			}
			cursor[t]++
		}
	}
	return &CSR{NumVertices: n, Offsets: offsets, Targets: targets, Weights: weights, targetSpace: g.NumVertices, sortedAdj: true, symmetrized: g.symmetrized}
}

// TestTransposeInt64Positions: the int64-position instantiation a graph
// of 2^32 edges or more takes gives the oracle's arrays too.
func TestTransposeInt64Positions(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	edges := make([]WeightedEdge, transposeCutover+5)
	for i := range edges {
		edges[i] = WeightedEdge{Src: uint32(r.Intn(3000)), Dst: uint32(r.Intn(700)), Weight: r.Float32()}
	}
	g, err := FromWeightedEdgesRect(3000, 700, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := transposeSerial(g)
	for _, workers := range []int{1, 3} {
		got := transpose[int64](g, workers)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) || !slices.Equal(got.Weights, want.Weights) ||
			got.NumVertices != want.NumVertices || got.targetSpace != want.targetSpace {
			t.Errorf("%d workers: int64-position transpose differs from the serial pass", workers)
		}
	}
}

func TestTransposeWeighted(t *testing.T) {
	g, err := FromWeightedEdges(3, []WeightedEdge{{0, 1, 1.5}, {0, 2, 2.5}, {1, 2, 3.5}})
	if err != nil {
		t.Fatalf("FromWeightedEdges: %v", err)
	}
	tr := g.Transpose()
	if !tr.Weighted() {
		t.Fatal("transpose dropped weights")
	}
	// Edge 1→2 weight 3.5 becomes 2→1.
	adj, w := tr.Neighbors(2), tr.EdgeWeights(2)
	found := false
	for i, v := range adj {
		if v == 1 {
			found = true
			if w[i] != 3.5 {
				t.Errorf("weight of transposed edge = %v, want 3.5", w[i])
			}
		}
	}
	if !found {
		t.Error("transpose missing weighted edge 2→1")
	}
}

func TestSortAdjacency(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 2}, {0, 1}, {1, 2}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	g.SortAdjacency()
	if !g.SortedAdjacency() {
		t.Fatal("SortedAdjacency() = false after SortAdjacency")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	adj := g.Neighbors(0)
	if adj[0] != 1 || adj[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", adj)
	}
}

func TestSortAdjacencyWeighted(t *testing.T) {
	g, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, 10}, {0, 0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	g.SortAdjacency()
	adj, w := g.Neighbors(0), g.EdgeWeights(0)
	if adj[0] != 0 || adj[1] != 1 {
		t.Fatalf("sorted adjacency = %v", adj)
	}
	if w[0] != 5 || w[1] != 10 {
		t.Errorf("weights did not follow targets: %v", w)
	}
}

func TestDegrees(t *testing.T) {
	g := diamond(t)
	out := g.OutDegrees()
	wantOut := []int64{2, 2, 1, 0}
	for v := range wantOut {
		if out[v] != wantOut[v] {
			t.Errorf("out[%d] = %d, want %d", v, out[v], wantOut[v])
		}
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Error("expected error for out-of-range target")
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	g := diamond(t)
	g.Targets[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range target")
	}
	g = diamond(t)
	g.Offsets[1] = -1
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted negative offset")
	}
	g = diamond(t)
	g.Offsets[0] = 1
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted nonzero first offset")
	}
	g = diamond(t)
	g.Weights = make([]float32, 2)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted mis-sized weights")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	tr := g.Transpose()
	if tr.NumEdges() != 0 {
		t.Errorf("transpose NumEdges = %d", tr.NumEdges())
	}
}

func TestMemoryBytes(t *testing.T) {
	g := diamond(t)
	want := int64(5*8 + 5*4) // 5 offsets × 8B + 5 targets × 4B
	if got := g.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	g, err := FromEdges(4, in)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges() returned %d edges, want %d", len(out), len(in))
	}
	count := map[Edge]int{}
	for _, e := range in {
		count[e]++
	}
	for _, e := range out {
		count[e]--
	}
	for e, c := range count {
		if c != 0 {
			t.Errorf("edge %v multiplicity mismatch %d", e, c)
		}
	}
}
