package native

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// Connected components for epoch-versioned graphs. Labels are canonical —
// every vertex ends up labeled with the minimum vertex id of its
// component — which is what makes RepairCC's conformance pin
// bit-identical: any algorithm computing min-id labels on the same
// graph produces the same array.

// ConnectedComponents computes min-id labels for the out-edge matrix m:
// labels[v] is the smallest vertex id reachable from v along out-edges.
// On an undirected (symmetrized) graph that is the smallest id of v's
// component; on a directed one it is what the service answers for
// /query/cc all the same. It transposes m (graph.CSR.Transpose) and runs
// ConnectedComponentsInto's flood over the result. The flood is serial,
// so pool is unused. A caller that already holds the in-edge matrix calls
// ConnectedComponentsInto and pays for no transpose.
func ConnectedComponents(pool *backend.Pool, m *backend.Matrix) []uint32 {
	in := backend.FromCSR(graph.TransposeArrays(m.NumRows, m.Offsets, m.Cols))
	return ConnectedComponentsInto(in, make([]uint32, m.NumRows), nil)
}

// ConnectedComponentsInto computes ConnectedComponents' labels in one
// pass over preds, the graph's in-edge matrix (the graph itself when it
// is symmetric), into labels (len preds.NumRows, overwritten whatever it
// held), and returns labels. Labels start as identity; each vertex s, in
// ascending id order, that still holds its own id is a root, and a flood
// from it hands s to every predecessor whose label is larger. Roots come
// in ascending order, so a vertex first relabelled takes its final label
// — the smallest root it reaches — and is never pushed again: every vertex
// is popped once and every edge read once. work is the flood's stack; with
// capacity preds.NumRows it never grows, so a caller lending one makes the
// pass allocation-free.
func ConnectedComponentsInto(preds *backend.Matrix, labels, work []uint32) []uint32 {
	for i := range labels {
		labels[i] = uint32(i)
	}
	work = work[:0]
	for s := range labels {
		if labels[s] == uint32(s) {
			work = flood(preds, labels, append(work, uint32(s)))
		}
	}
	return labels
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
	flood(preds, labels, work)
	return labels
}

// flood pops the vertices on work, whose labels just fell, and hands each
// one's label to every predecessor (a row of preds) still holding a
// larger one, pushing it in turn. Min labels only ever fall, so each pop
// either lowers predecessors or ends a branch. It returns the emptied
// stack for reuse.
func flood(preds *backend.Matrix, labels, work []uint32) []uint32 {
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
	return work
}
