package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomEdges draws a reproducible random edge list over n vertices.
func randomEdges(r *rand.Rand, n uint32, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: uint32(r.Intn(int(n))), Dst: uint32(r.Intn(int(n)))}
	}
	return edges
}

// TestQuickCSRRoundTrip: FromEdges followed by Edges() preserves the edge
// multiset for arbitrary inputs.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, mRaw uint16) bool {
		n := uint32(nRaw%500) + 1
		m := int(mRaw % 2000)
		r := rand.New(rand.NewSource(seed))
		in := randomEdges(r, n, m)
		g, err := FromEdges(n, in)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		count := map[Edge]int{}
		for _, e := range in {
			count[e]++
		}
		for _, e := range g.Edges() {
			count[e]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransposeInvolution: transposing twice restores the edge
// multiset.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint16, mRaw uint16) bool {
		n := uint32(nRaw%300) + 1
		m := int(mRaw % 1500)
		r := rand.New(rand.NewSource(seed))
		g, err := FromEdges(n, randomEdges(r, n, m))
		if err != nil {
			return false
		}
		back := g.Transpose().Transpose()
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		count := map[Edge]int{}
		for _, e := range g.Edges() {
			count[e]++
		}
		for _, e := range back.Edges() {
			count[e]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartition1DCoversEdges: every vertex has exactly one owner and
// local vertex counts sum to the graph.
func TestQuickPartition1D(t *testing.T) {
	f := func(seed int64, nRaw uint16, mRaw uint16, pRaw uint8) bool {
		n := uint32(nRaw%400) + 8
		m := int(mRaw % 2000)
		parts := int(pRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		g, err := FromEdges(n, randomEdges(r, n, m))
		if err != nil {
			return false
		}
		p, err := NewPartition1D(g, parts)
		if err != nil {
			return false
		}
		var total uint32
		for i := 0; i < parts; i++ {
			lo, hi := p.Range(i)
			total += hi - lo
		}
		if total != n {
			return false
		}
		for v := uint32(0); v < n; v++ {
			o := p.Owner(v)
			lo, hi := p.Range(o)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartition2DOwnership: every possible edge has exactly one owner
// whose block contains it.
func TestQuickPartition2D(t *testing.T) {
	f := func(nRaw uint16, rRaw uint8) bool {
		r := int(rRaw%5) + 1
		n := uint32(nRaw%1000) + uint32(r)
		p, err := NewPartition2D(n, r*r)
		if err != nil {
			return false
		}
		probe := []uint32{0, n / 3, n / 2, n - 1}
		for _, s := range probe {
			for _, d := range probe {
				o := p.Owner(s, d)
				br, bc := p.Block(o)
				if s < p.RowStarts[br] || s >= p.RowStarts[br+1] {
					return false
				}
				if d < p.ColStarts[bc] || d >= p.ColStarts[bc+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickOrientAcyclicIsDAG: after OrientAcyclic every edge goes
// small→large, hence the graph is acyclic.
func TestQuickOrientAcyclic(t *testing.T) {
	f := func(seed int64, nRaw uint16, mRaw uint16) bool {
		n := uint32(nRaw%300) + 2
		m := int(mRaw % 1500)
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		b.AddEdges(randomEdges(r, n, m))
		g, err := b.Build(BuildOptions{Orientation: OrientAcyclic, Dedup: true})
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if e.Src >= e.Dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSymmetrizeIsSymmetric: after Symmetrize+Dedup, (u,v) present
// implies (v,u) present.
func TestQuickSymmetrize(t *testing.T) {
	f := func(seed int64, nRaw uint16, mRaw uint16) bool {
		n := uint32(nRaw%200) + 2
		m := int(mRaw % 1000)
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		b.AddEdges(randomEdges(r, n, m))
		g, err := b.Build(BuildOptions{Orientation: Symmetrize, Dedup: true, DropSelfLoops: true})
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.Dst, e.Src) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
