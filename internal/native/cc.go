package native

import (
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// Connected components for epoch-versioned graphs. Labels are canonical —
// every vertex ends up labeled with the minimum vertex id of its
// component — which is what makes RepairCC's conformance pin
// bit-identical: any algorithm computing min-id labels on the same
// graph produces the same array.

// ConnectedComponents computes min-id labels with synchronous min-label
// sweeps on the backend pool: next[v] = min(cur[v], min over out-neighbors
// cur[w]), iterated to a fixpoint, so labels[v] is the smallest vertex id
// reachable from v. On an undirected (symmetrized) graph that is the
// smallest id of v's component; on a directed one it is what the service
// answers for /query/cc all the same. Jacobi-style double buffering makes
// every sweep deterministic at any worker count.
func ConnectedComponents(pool *backend.Pool, m *backend.Matrix) []uint32 {
	return ConnectedComponentsInto(pool, m, make([]uint32, m.NumRows), make([]uint32, m.NumRows))
}

// ConnectedComponentsInto is ConnectedComponents on the caller's two
// label buffers, each of m.NumRows elements and overwritten whatever they
// held. The returned labels are one of the two.
func ConnectedComponentsInto(pool *backend.Pool, m *backend.Matrix, cur, next []uint32) []uint32 {
	n := int(m.NumRows)
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

// RepairCC brings min-id labels up to date after edge insertions, in
// place. labels holds ConnectedComponents' result on the graph as it was
// before added went in, over a prefix of the vertex space: labels[v] is
// the smallest vertex id reachable from v along out-edges (on a
// symmetrized graph, the smallest id of v's component). An added edge
// (u,v) lets u reach whatever v reaches, so it lowers u when v's label is
// the smaller, and the lower label then belongs to every vertex that
// reaches u: the flood runs backwards, through preds, the in-edge matrix
// (the transpose) of the graph with every added edge present. On a
// symmetric graph that is the graph's own matrix. Flooding along
// out-edges instead is only right when every edge has its reverse. The
// result is bit-identical to a cold ConnectedComponents on the new graph;
// added may be the union of several epochs' cleaned deltas. Work is
// proportional to the relabelled region.
func RepairCC(preds *backend.Matrix, labels []uint32, added []graph.Edge) []uint32 {
	// New vertices start as their own singleton components. The vector
	// grows to exactly the new vertex count (see RepairBFS).
	if n := int(preds.NumRows); len(labels) < n {
		grown := make([]uint32, n)
		for i := copy(grown, labels); i < n; i++ {
			grown[i] = graph.MustU32(int64(i))
		}
		labels = grown
	}
	var work []uint32
	for _, e := range added {
		if lv := labels[e.Dst]; lv < labels[e.Src] {
			labels[e.Src] = lv
			work = append(work, e.Src)
		}
	}
	// Min labels only ever fall, so each pop either lowers predecessors or
	// terminates.
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		lv := labels[v]
		for _, p := range preds.Cols[preds.Offsets[v]:preds.Offsets[v+1]] {
			if labels[p] > lv {
				labels[p] = lv
				work = append(work, p)
			}
		}
	}
	return labels
}
