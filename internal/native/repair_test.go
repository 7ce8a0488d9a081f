package native

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// directedStream is a directed RMAT graph in which vertex 0 reaches nothing
// on its own account (so lowering a label to 0 is an event, not the
// starting state) plus 20 random deltas. Every delta carries the cases
// the repairs must survive: a duplicate of an existing edge, an edge
// repeated within the batch, a self loop, a brand-new vertex, and — in the
// middle of the stream — an edge from the highest-numbered vertex straight
// to vertex 0, which drops the label of everything that reaches it to 0.
func directedStream(t *testing.T, seed int64) (*graph.Versioned, [][]graph.Edge) {
	t.Helper()
	const scale = 8
	edges, err := gen.RMAT(gen.Graph500Config(scale, 4, seed))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << scale)
	for _, e := range edges {
		if e.Dst != 0 {
			b.AddEdges([]graph.Edge{e})
		}
	}
	base, err := b.Build(graph.BuildOptions{Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(base, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	top := uint32(1 << scale)
	existing := base.Edges()
	deltas := make([][]graph.Edge, 20)
	for i := range deltas {
		var d []graph.Edge
		for j := 0; j < 12; j++ {
			e := graph.Edge{Src: uint32(rng.Intn(int(top))), Dst: 1 + uint32(rng.Intn(int(top)-1))}
			d = append(d, e)
		}
		d = append(d, d[0], existing[rng.Intn(len(existing))])
		loop := uint32(rng.Intn(int(top)))
		d = append(d, graph.Edge{Src: loop, Dst: loop})
		d = append(d, graph.Edge{Src: top, Dst: 1 + uint32(rng.Intn(int(top)-1))})
		top++
		if i == len(deltas)/2 {
			d = append(d, graph.Edge{Src: top - 1, Dst: 0})
		}
		deltas[i] = d
	}
	return v, deltas
}

// directedBFS runs BFS from source on a directed snapshot, with its
// transpose as the in-edge matrix bottom-up levels read.
func directedBFS(pool *backend.Pool, s *graph.Snapshot, source uint32) []int32 {
	dist, _ := BFS(pool, backend.FromSnapshot(s), backend.FromCSR(s.CSR().Transpose()), source, "native.bfs.level", nil)
	return dist
}

// TestRepairCCDirectedConformance: on a directed graph connected
// components is "smallest id reachable along out-edges", and its repair
// floods predecessors through the in-CSR. Repaired labels must equal a
// cold run bit for bit at every epoch, one delta at a time and with
// several skipped epochs repaired at once from the union of their deltas.
// (Flooding out-edges instead fails this on the first delta that lowers a
// label.)
func TestRepairCCDirectedConformance(t *testing.T) {
	for _, procs := range conformanceProcs {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			for _, stride := range []int{1, 3} {
				v, deltas := directedStream(t, 23)
				pool := backend.NewPool(0)
				defer pool.Close()
				labels := ConnectedComponents(pool, backend.FromSnapshot(v.Current()))
				if labels[0] != 0 || slices.Index(labels[1:], 0) >= 0 {
					t.Fatal("fixture: something reaches vertex 0 before any delta")
				}
				var union []graph.Edge
				sawZero := false
				for i, d := range deltas {
					snap, added, _, err := v.ApplyDelta(d)
					if err != nil {
						t.Fatal(err)
					}
					union = append(union, added...)
					if (i+1)%stride != 0 {
						continue
					}
					labels = RepairCC(backend.FromCSR(snap.CSR().Transpose()), labels, union)
					union = union[:0]
					ref := ConnectedComponents(pool, backend.FromSnapshot(snap))
					if !slices.Equal(labels, ref) {
						t.Fatalf("procs=%d stride=%d epoch=%d: repaired labels differ from a cold run", procs, stride, snap.Epoch())
					}
					sawZero = sawZero || slices.Index(labels[1:], 0) >= 0
				}
				if !sawZero {
					t.Error("fixture: no delta ever lowered a label to 0")
				}
			}
		}()
	}
}

// TestRepairBFSDirectedConformance pins what RepairBFS's contract says:
// insertion-only repair along out-edges is exact on a directed graph.
func TestRepairBFSDirectedConformance(t *testing.T) {
	for _, procs := range conformanceProcs {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			for _, stride := range []int{1, 4} {
				v, deltas := directedStream(t, 29)
				pool := backend.NewPool(0)
				defer pool.Close()
				// The highest-degree vertex: a source that reaches something.
				var source uint32
				for u := uint32(0); u < v.Current().NumVertices(); u++ {
					if v.Current().CSR().Degree(u) > v.Current().CSR().Degree(source) {
						source = u
					}
				}
				dist := directedBFS(pool, v.Current(), source)
				var union []graph.Edge
				for i, d := range deltas {
					snap, added, _, err := v.ApplyDelta(d)
					if err != nil {
						t.Fatal(err)
					}
					union = append(union, added...)
					if (i+1)%stride != 0 {
						continue
					}
					dist = RepairBFS(backend.FromSnapshot(snap), dist, union)
					union = union[:0]
					ref := directedBFS(pool, snap, source)
					if !slices.Equal(dist, ref) {
						t.Fatalf("procs=%d stride=%d epoch=%d: repaired distances differ from a cold run", procs, stride, snap.Epoch())
					}
				}
			}
		}()
	}
}
