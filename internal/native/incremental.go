package native

import (
	"fmt"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// This file holds the incremental native kernels for epoch-versioned
// graphs: instead of recomputing PageRank / BFS / connected components
// from scratch on every epoch, each warm-starts from the prior epoch's
// result and repairs only what the delta invalidated. Each is a function
// over a vector its caller carries from epoch to epoch (RepairCC lives
// beside ConnectedComponents in cc.go). All three are conformance-pinned
// against full recomputation on the new epoch — bit-identically for BFS
// and CC (their results are canonical), and within the convergence
// tolerance for PageRank (both runs converge to the same unique fixpoint).

// WarmPageRank runs tolerance-driven PageRank on the caller's pool from the
// ranks of an earlier epoch: in is the new epoch's in-edge pattern matrix,
// outDeg its out-degrees, jump the random-jump probability r. ranks holds
// the earlier epoch's result over a prefix of the vertex space (nil is a
// cold start); it grows to exactly in.NumRows with every new vertex at 1,
// the paper's initialization, and is overwritten — the returned slice
// replaces it. The delta's effect is localized through convergence: ranks
// far from the touched region barely move, so the tolerance check stops
// after a few sweeps instead of a cold run's dozens. Hitting maxSweeps is
// an error, because a truncated run would silently break the conformance
// pin. WarmPageRank(…, nil) is bit-identical to PageRank with the same tol:
// on an all-ones start the mass deficit below is exactly 0.
func WarmPageRank(pool *par.Pool, in *backend.Matrix, outDeg []int64, jump, tol float64, maxSweeps int,
	ranks []float64) ([]float64, int, error) {
	n := int(in.NumRows)
	if len(ranks) < n {
		grown := make([]float64, n)
		for i := copy(grown, ranks); i < n; i++ {
			grown[i] = 1
		}
		ranks = grown
	}

	// Mass correction on the warm start. The iteration matrix has an
	// eigenvalue of exactly (1-jump) whose left eigenvector is the all-ones
	// vector over the emitting (out-degree > 0) vertices of a component:
	// each sweep preserves (1-r) of their total mass and injects r each. A
	// cold all-ones start carries the fixpoint's mass and never excites
	// that slowest mode, but a delta changes the target mass, so the raw
	// warm start would converge at the worst-case rate (1-r) — empirically
	// slower than restarting cold. Redistributing the mass deficit over
	// emitting vertices, degree-weighted (the stationary mode's shape on a
	// symmetrized graph), zeroes the slow mode's coefficient and restores
	// the delta-localized convergence the warm start is for. The fixpoint
	// is unchanged, so conformance is unaffected.
	var mass, vol, active float64
	for v := 0; v < n; v++ {
		if outDeg[v] > 0 {
			mass += ranks[v]
			vol += float64(outDeg[v])
			active++
		}
	}
	if vol > 0 {
		deficit := active - mass
		for v := 0; v < n; v++ {
			if outDeg[v] > 0 {
				ranks[v] += deficit * float64(outDeg[v]) / vol
			}
		}
	}

	ranks, sweeps, converged := pageRankSweeps(pool, in, outDeg, jump, tol, 0, maxSweeps,
		ranks, make([]float64, n), make([]float64, n), nil)
	if !converged {
		return nil, sweeps, fmt.Errorf("native: incremental pagerank did not converge to %g in %d sweeps", tol, maxSweeps)
	}
	return ranks, sweeps, nil
}

// RepairBFS brings single-source hop distances up to date after edge
// insertions, in place. dist holds the exact distances (-1 = unreached) on
// the graph as it was before added went in, over a prefix of m's vertex
// space; m is the out-edge matrix of the graph with every added edge
// present. The result is bit-identical to a cold BFS on m from the same
// source, for a directed graph as much as for a symmetrized one: an
// insertion never lengthens a path, so every stale distance is an
// overestimate, and relaxing outward along out-edges from the added edges
// that create shortcuts reaches exactly the vertices that improved. added
// may be the union of several epochs' cleaned deltas (ApplyDelta's
// output) as long as it is all of them — the repair is then one pass
// seeded by the union. Work is proportional to the improved region, so the
// repair is serial: its frontiers fall out of the delta, not the graph.
func RepairBFS(m *backend.Matrix, dist []int32, added []graph.Edge) []int32 {
	// Vertices the insertions introduced are unreachable until an added
	// edge connects them. The vector grows to exactly the new vertex
	// count: whoever carries it across epochs accounts for its capacity.
	if n := int(m.NumRows); len(dist) < n {
		grown := make([]int32, n)
		for i := copy(grown, dist); i < n; i++ {
			grown[i] = -1
		}
		dist = grown
	}

	// buckets[d] holds vertices whose tentative distance improved to d.
	var buckets [][]uint32
	push := func(v uint32, d int32) {
		for len(buckets) <= int(d) {
			buckets = append(buckets, nil)
		}
		buckets[d] = append(buckets[d], v)
	}
	// Seed: an added edge (u,v) with a reached tail is a shortcut when it
	// beats v's current distance.
	for _, e := range added {
		du := dist[e.Src]
		if du < 0 {
			continue
		}
		if dv := dist[e.Dst]; dv < 0 || dv > du+1 {
			dist[e.Dst] = du + 1
			push(e.Dst, du+1)
		}
	}
	// Relax in level order (a bucket queue over unit weights): a popped
	// vertex is final when its recorded distance still matches its bucket,
	// so each improved vertex expands exactly once.
	for d := 0; d < len(buckets); d++ {
		dd := graph.MustI32(int64(d))
		for i := 0; i < len(buckets[d]); i++ {
			v := buckets[d][i]
			if dist[v] != dd {
				continue // improved again by a lower bucket; stale entry
			}
			nd := dd + 1
			for _, w := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
				if dw := dist[w]; dw < 0 || dw > nd {
					dist[w] = nd
					push(w, nd)
				}
			}
		}
	}
	return dist
}
