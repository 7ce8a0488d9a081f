package native

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// jacobiCC is the reference oracle for connected components: the
// synchronous min-label sweeps the service ran before the flood.
// next[v] = min(cur[v], min over out-neighbours cur[w]) on the pool,
// double-buffered so every sweep is deterministic at any worker count,
// iterated until no label changes. It reads every edge once per sweep and
// shares no code with the flood it checks.
func jacobiCC(pool *par.Pool, m *backend.Matrix) []uint32 {
	n := int(m.NumRows)
	cur, next := make([]uint32, n), make([]uint32, n)
	for i := range cur {
		cur[i] = uint32(i)
	}
	var changed atomic.Bool
	sweep := backend.NewDense(pool, n, func(lo, hi int) {
		dirty := false
		for v := lo; v < hi; v++ {
			best := cur[v]
			for _, w := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
				if cur[w] < best {
					best = cur[w]
				}
			}
			next[v] = best
			if best != cur[v] {
				dirty = true
			}
		}
		if dirty {
			changed.Store(true)
		}
	})
	for {
		changed.Store(false)
		sweep.Run()
		cur, next = next, cur
		if !changed.Load() {
			return cur
		}
	}
}

// randomGraph builds an n-vertex graph from m uniform random edges, kept
// raw: self loops and duplicate edges stay in, and a symmetric graph gets
// every edge's reverse.
func randomGraph(t *testing.T, rng *rand.Rand, n, m int, symmetric bool) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < m && n > 0; i++ {
		e := graph.Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		edges = append(edges, e)
		if symmetric {
			edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	g, err := graph.FromEdges(uint32(n), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConnectedComponentsFloodMatchesSweeps: the one-pass flood over the
// in-edge matrix returns the sweeps' labels element for element — on
// symmetric and directed random graphs from empty to dense, on sparse
// ones with many small components, and at every epoch of directedStream's
// RMAT, where new vertices arrive and an edge from the highest vertex
// lets it, and everything reaching it, reach vertex 0 — whatever the label
// buffer held before, with a lent stack of any capacity, and through the
// out-edge wrapper.
func TestConnectedComponentsFloodMatchesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type fixture struct {
		name string
		g    *graph.CSR
	}
	var fixtures []fixture
	for _, n := range []int{0, 1, 2, 7, 64, 300, 2000} {
		for _, perVertex := range []float64{0.3, 0.9, 3} {
			for _, symmetric := range []bool{true, false} {
				fixtures = append(fixtures, fixture{
					fmt.Sprintf("random n=%d m=%.1fn symmetric=%t", n, perVertex, symmetric),
					randomGraph(t, rng, n, int(perVertex*float64(n)), symmetric),
				})
			}
		}
	}
	for _, seed := range []int64{1, 911, 4242} {
		v, deltas := directedStream(t, seed)
		for _, d := range deltas {
			snap, _, _, err := v.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, fixture{fmt.Sprintf("directed rmat seed=%d epoch=%d", seed, snap.Epoch()), snap.CSR()})
		}
	}

	pool := par.NewPool(2)
	defer pool.Close()
	for _, f := range fixtures {
		m := backend.FromCSR(f.g)
		want := jacobiCC(pool, m)
		preds := backend.FromCSR(f.g.Transpose())
		n := int(f.g.NumVertices)
		for _, work := range [][]uint32{nil, make([]uint32, 0, n)} {
			labels := make([]uint32, n)
			for i := range labels {
				labels[i] = ^uint32(i)
			}
			if got := ConnectedComponentsInto(preds, labels, work); !slices.Equal(got, want) {
				t.Fatalf("%s: flood labels differ from the sweeps (stack cap %d)", f.name, cap(work))
			}
		}
		if got := ConnectedComponents(pool, m); !slices.Equal(got, want) {
			t.Fatalf("%s: ConnectedComponents differs from the sweeps", f.name)
		}
	}
}

// TestConnectedComponentsIntoLentStackAllocatesNothing: with a label
// buffer and a stack of capacity n lent to it, the flood allocates
// nothing — each vertex is pushed at most once, so the stack never grows.
func TestConnectedComponentsIntoLentStackAllocatesNothing(t *testing.T) {
	v, _ := directedStream(t, 7)
	g := v.Current().CSR()
	preds := backend.FromCSR(g.Transpose())
	labels := make([]uint32, g.NumVertices)
	work := make([]uint32, 0, g.NumVertices)
	if a := testing.AllocsPerRun(10, func() { ConnectedComponentsInto(preds, labels, work) }); a != 0 {
		t.Errorf("ConnectedComponentsInto with a lent stack: %v allocations per run, want 0", a)
	}
}
