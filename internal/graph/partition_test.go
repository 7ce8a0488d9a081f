package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func chain(t *testing.T, n uint32) *CSR {
	t.Helper()
	edges := make([]Edge, 0, n-1)
	for v := uint32(0); v+1 < n; v++ {
		edges = append(edges, Edge{v, v + 1})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// owner returns the part owning edge (src,dst): the block whose row range
// contains src and whose column range contains dst. CombBLAS hands out
// whole blocks, so only the tests ask this of a single edge.
func (p *Partition2D) owner(src, dst uint32) int {
	ri := sort.Search(p.GridDim, func(i int) bool { return p.RowStarts[i+1] > src })
	ci := sort.Search(p.GridDim, func(i int) bool { return p.ColStarts[i+1] > dst })
	return ri*p.GridDim + ci
}

func TestPartition1DCoversAllVertices(t *testing.T) {
	g := chain(t, 100)
	p, err := NewPartition1D(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	var total uint32
	prev := uint32(0)
	for i := 0; i < p.NumParts; i++ {
		lo, hi := p.Range(i)
		if lo != prev {
			t.Errorf("part %d starts at %d, want %d", i, lo, prev)
		}
		total += hi - lo
		prev = hi
	}
	if total != g.NumVertices {
		t.Errorf("parts cover %d vertices, want %d", total, g.NumVertices)
	}
	if prev != g.NumVertices {
		t.Errorf("last part ends at %d, want %d", prev, g.NumVertices)
	}
}

func TestPartition1DOwnerMatchesRange(t *testing.T) {
	g := chain(t, 64)
	p, err := NewPartition1D(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < g.NumVertices; v++ {
		o := p.Owner(v)
		lo, hi := p.Range(o)
		if v < lo || v >= hi {
			t.Errorf("Owner(%d)=%d but range is [%d,%d)", v, o, lo, hi)
		}
	}
}

func TestPartition1DEdgeBalance(t *testing.T) {
	// A skewed graph: vertex 0 has 90 edges, the rest have 1. Balanced-by-
	// edges partitioning should not give part 0 everything.
	edges := make([]Edge, 0, 190)
	for i := uint32(1); i <= 90; i++ {
		edges = append(edges, Edge{0, i % 100})
	}
	for v := uint32(1); v < 100; v++ {
		edges = append(edges, Edge{v, (v + 1) % 100})
	}
	g, err := FromEdges(100, edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition1D(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Range(0)
	edges0 := g.Offsets[hi] - g.Offsets[lo]
	if edges0 > g.NumEdges() {
		t.Fatalf("part 0 edge count %d out of range", edges0)
	}
	// Part 0 holds the hub; it should stop quickly after covering ~1/4 of
	// the edges rather than absorbing most vertices.
	if hi > 60 {
		t.Errorf("part 0 spans [%d,%d); expected edge-balanced cut below 60", lo, hi)
	}
}

func TestPartition1DSinglePart(t *testing.T) {
	g := chain(t, 10)
	p, err := NewPartition1D(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Range(0)
	if lo != 0 || hi != 10 {
		t.Errorf("single part range [%d,%d), want [0,10)", lo, hi)
	}
}

func TestPartition1DErrors(t *testing.T) {
	g := chain(t, 4)
	if _, err := NewPartition1D(g, 0); err == nil {
		t.Error("expected error for 0 parts")
	}
	if _, err := NewPartition1D(g, 9); err == nil {
		t.Error("expected error for more parts than vertices")
	}
}

func TestPartition1DMorePartsThanNeeded(t *testing.T) {
	// Every part must own at least one vertex even when early parts could
	// swallow all edges.
	edges := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 1}}
	g, err := FromEdges(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition1D(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if lo, hi := p.Range(i); hi == lo {
			t.Errorf("part %d owns no vertices", i)
		}
	}
}

// TestGhostPlanCoversBoundaryEdges pins SendIDs, the boundary plan native
// PageRank and GraphLab's ghost sync both ship by: sendIDs[s][d] is
// exactly the sorted, distinct vertices owned by s with an out-edge into
// d — every cross-partition edge's source is listed, and nothing else is.
func TestGhostPlanCoversBoundaryEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := make([]Edge, 0, 2048)
	for i := 0; i < cap(edges); i++ {
		edges = append(edges, Edge{uint32(rng.Intn(256)), uint32(rng.Intn(256))})
	}
	g, err := FromEdges(256, edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition1D(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]uint32, part.NumParts)
	for s := range want {
		want[s] = make([][]uint32, part.NumParts)
	}
	for v := uint32(0); v < g.NumVertices; v++ {
		s := part.Owner(v)
		for _, tgt := range g.Neighbors(v) {
			if d := part.Owner(tgt); d != s && !slices.Contains(want[s][d], v) {
				want[s][d] = append(want[s][d], v)
			}
		}
	}
	got := part.SendIDs(g)
	for s := range want {
		for d := range want[s] {
			slices.Sort(want[s][d])
			if !slices.Equal(got[s][d], want[s][d]) {
				t.Fatalf("sendIDs[%d][%d] = %v, want %v", s, d, got[s][d], want[s][d])
			}
		}
	}
}

// TestDistinctTargetsMatchesBruteForce pins DistinctTargets, the per-node
// remote-target counts the CF cluster paths charge by, against a set per
// part: once with local ranges excluded (a bipartite-style target space
// larger than the rows), once counting every target.
func TestDistinctTargetsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const rows, targets = 200, 300
	edges := make([]Edge, 0, 1500)
	for i := 0; i < cap(edges); i++ {
		edges = append(edges, Edge{uint32(rng.Intn(rows)), uint32(rng.Intn(targets))})
	}
	g, err := FromEdges(targets, edges)
	if err != nil {
		t.Fatal(err)
	}
	rowBounds := []uint32{0, 37, 38, 120, rows}
	local := []uint32{0, 90, 200, 201, targets}
	for _, local := range [][]uint32{local, nil} {
		got := DistinctTargets(g, rowBounds, local)
		for i := range got {
			set := map[uint32]bool{}
			for v := rowBounds[i]; v < rowBounds[i+1]; v++ {
				for _, tgt := range g.Neighbors(v) {
					if local == nil || tgt < local[i] || tgt >= local[i+1] {
						set[tgt] = true
					}
				}
			}
			if got[i] != int64(len(set)) {
				t.Errorf("local=%v: part %d counts %d distinct targets, want %d", local, i, got[i], len(set))
			}
		}
	}
}

func TestPartition2D(t *testing.T) {
	p, err := NewPartition2D(100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.GridDim != 3 {
		t.Fatalf("GridDim = %d, want 3", p.GridDim)
	}
	// Every edge maps to exactly one part, and the block coordinates are
	// consistent with owner.
	for _, e := range []Edge{{0, 0}, {0, 99}, {99, 0}, {50, 50}, {33, 66}} {
		o := p.owner(e.Src, e.Dst)
		if o < 0 || o >= 9 {
			t.Errorf("owner(%d,%d) = %d out of range", e.Src, e.Dst, o)
		}
		r, c := p.Block(o)
		if e.Src < p.RowStarts[r] || e.Src >= p.RowStarts[r+1] {
			t.Errorf("edge (%d,%d): src outside block row %d", e.Src, e.Dst, r)
		}
		if e.Dst < p.ColStarts[c] || e.Dst >= p.ColStarts[c+1] {
			t.Errorf("edge (%d,%d): dst outside block col %d", e.Src, e.Dst, c)
		}
	}
}

func TestPartition2DRejectsNonSquare(t *testing.T) {
	if _, err := NewPartition2D(10, 8); err == nil {
		t.Error("expected error for non-square part count")
	}
	if _, err := NewPartition2D(10, 0); err == nil {
		t.Error("expected error for zero parts")
	}
}

func TestPartition2DRowsCoverVertices(t *testing.T) {
	p, err := NewPartition2D(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.RowStarts[0] != 0 || p.RowStarts[p.GridDim] != 10 {
		t.Errorf("RowStarts = %v, want cover of [0,10)", p.RowStarts)
	}
	for i := 1; i <= p.GridDim; i++ {
		if p.RowStarts[i] < p.RowStarts[i-1] {
			t.Errorf("RowStarts not monotone: %v", p.RowStarts)
		}
	}
}
