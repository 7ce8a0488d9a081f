package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func randomEdgeList(rng *rand.Rand, n int, vertices uint32) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: rng.Uint32() % vertices, Dst: rng.Uint32() % vertices}
	}
	return edges
}

// TestSortEdgesByKey checks the radix path against the comparator
// reference across sizes on both sides of radixSortThreshold, with heavy
// duplication so the stable scatter and dedup interaction are exercised.
func TestSortEdgesByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 2, 100, radixSortThreshold - 1, radixSortThreshold, radixSortThreshold + 1, radixSortThreshold * 3}
	if testing.Short() {
		sizes = []int{0, 1, 100, radixSortThreshold + 1}
	}
	for _, n := range sizes {
		// Few distinct vertices → many duplicate keys.
		edges := randomEdgeList(rng, n, 1<<10)
		want := append([]Edge(nil), edges...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Src != want[j].Src {
				return want[i].Src < want[j].Src
			}
			return want[i].Dst < want[j].Dst
		})
		sortEdgesByKey(edges)
		for i := range edges {
			if edges[i] != want[i] {
				t.Fatalf("n=%d: edges[%d] = %v, want %v", n, i, edges[i], want[i])
			}
		}
	}
}

// TestSortEdgesByKeyExtremes pins the key packing order: Src is the high
// half, so sorting by key sorts by (Src, Dst) even at the uint32 extremes.
func TestSortEdgesByKeyExtremes(t *testing.T) {
	edges := make([]Edge, radixSortThreshold+4)
	edges[0] = Edge{Src: ^uint32(0), Dst: 0}
	edges[1] = Edge{Src: 0, Dst: ^uint32(0)}
	edges[2] = Edge{Src: ^uint32(0), Dst: ^uint32(0)}
	edges[3] = Edge{Src: 0, Dst: 0}
	rng := rand.New(rand.NewSource(5))
	for i := 4; i < len(edges); i++ {
		edges[i] = Edge{Src: rng.Uint32(), Dst: rng.Uint32()}
	}
	sortEdgesByKey(edges)
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Fatalf("edges[%d]=%v > edges[%d]=%v", i-1, a, i, b)
		}
	}
}

// TestBuildDedupLargeMatchesSmallPath verifies Build's dedup produces the
// same CSR whether the radix path (above threshold) or the comparator
// path handled the sort: duplicates collapse identically.
func TestBuildDedupLargeMatchesSmallPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const vertices = 1 << 9
	base := randomEdgeList(rng, radixSortThreshold/2, vertices)
	// Triplicate every edge and shuffle: well above threshold, maximally
	// duplicated.
	big := make([]Edge, 0, len(base)*3)
	for i := 0; i < 3; i++ {
		big = append(big, base...)
	}
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	if len(big) < radixSortThreshold {
		t.Fatalf("test input too small to hit the radix path: %d", len(big))
	}

	build := func(edges []Edge) *CSR {
		b := NewBuilder(vertices)
		b.AddEdges(edges)
		g, err := b.Build(BuildOptions{Dedup: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	got := build(big)
	want := build(base[:len(base):len(base)]) // below threshold: comparator path

	if got.NumVertices != want.NumVertices || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape mismatch: got %d/%d, want %d/%d",
			got.NumVertices, got.NumEdges(), want.NumVertices, want.NumEdges())
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("Offsets[%d] = %d, want %d", i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("Targets[%d] = %d, want %d", i, got.Targets[i], want.Targets[i])
		}
	}
}
