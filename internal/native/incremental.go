package native

import (
	"errors"
	"fmt"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// This file implements the incremental native kernels for epoch-versioned
// graphs: instead of recomputing PageRank / BFS / connected components
// from scratch on every epoch, each kernel warm-starts from the prior
// epoch's result and repairs only what the delta invalidated. All three
// are conformance-pinned against full recomputation on the new epoch —
// bit-identically for BFS and CC (their results are canonical), and
// within the convergence tolerance for PageRank (both runs converge to
// the same unique fixpoint).

// IncrementalPROptions configures an IncrementalPageRank kernel.
// Convergence is tolerance-driven: the warm start is exactly what makes
// later epochs converge in a handful of sweeps, so a fixed iteration
// count would erase the benefit being measured.
type IncrementalPROptions struct {
	// RandomJump is r in the paper's equation (default 0.3).
	RandomJump float64
	// Tolerance stops a refresh once no rank moves by more than this in a
	// sweep (default 1e-9).
	Tolerance float64
	// MaxSweeps bounds a refresh (default 1000); hitting it is an error,
	// because a truncated run would silently break the conformance pin.
	MaxSweeps int
}

func (o IncrementalPROptions) withDefaults() IncrementalPROptions {
	if o.RandomJump == 0 {
		o.RandomJump = 0.3
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 1000
	}
	return o
}

// IncrementalPageRank computes PageRank across the epochs of a versioned
// graph on the backend pool, warm-starting every refresh from the prior
// epoch's ranks. The delta's effect is localized through convergence:
// ranks far from the touched region barely move, so the tolerance check
// terminates after a few sweeps instead of a cold run's dozens.
//
// The kernel deliberately holds ranks and scratch — never a Snapshot;
// each Update receives the epoch to refresh against explicitly.
type IncrementalPageRank struct {
	opt  IncrementalPROptions
	pool *backend.Pool
	mul  *backend.SumVecMul

	epoch   graph.Epoch
	primed  bool
	ranks   []float64
	next    []float64
	contrib []float64
	outDeg  []int64
}

// NewIncrementalPageRank builds the kernel on the caller's pool, which
// must outlive it.
func NewIncrementalPageRank(pool *backend.Pool, opt IncrementalPROptions) *IncrementalPageRank {
	return &IncrementalPageRank{opt: opt.withDefaults(), pool: pool}
}

// Epoch reports the last epoch Update refreshed against.
func (p *IncrementalPageRank) Epoch() graph.Epoch { return p.epoch }

// Update refreshes the ranks for the given epoch and returns them along
// with the number of sweeps the refresh took. The first call is a cold
// start (all ranks 1, the paper's initialization); later calls warm-start
// from the previous epoch's ranks, with vertices the epoch introduced
// initialized to 1. The returned slice is the kernel's state: it is valid
// until the next Update and must not be modified.
func (p *IncrementalPageRank) Update(s *graph.Snapshot) ([]float64, int, error) {
	g := s.CSR()
	n := int(g.NumVertices)
	if n == 0 {
		return nil, 0, errors.New("native: incremental pagerank on an empty graph")
	}

	// Warm-start: keep prior ranks, initialize only the grown tail.
	for len(p.ranks) < n {
		p.ranks = append(p.ranks, 1)
	}
	if !p.primed {
		for i := range p.ranks {
			p.ranks[i] = 1
		}
	}
	p.next = growFloat64(p.next, n)
	p.contrib = growFloat64(p.contrib, n)
	ranks, next, contrib := p.ranks[:n], p.next[:n], p.contrib[:n]

	// Per-epoch rebuild: the in-CSR and out-degrees change with the graph.
	// This is the O(E) part of a refresh; the savings live in the sweep
	// count below.
	in := g.Transpose()
	p.outDeg = p.outDeg[:0]
	for v := uint32(0); v < g.NumVertices; v++ {
		p.outDeg = append(p.outDeg, g.Degree(v))
	}
	outDeg := p.outDeg

	// Mass correction on the warm start. The iteration matrix has an
	// eigenvalue of exactly (1-RandomJump) whose left eigenvector is the
	// all-ones vector over the emitting (out-degree > 0) vertices of a
	// component: each sweep preserves (1-r) of their total mass and
	// injects r each. A cold all-ones start carries the fixpoint's mass
	// and never excites that slowest mode, but a delta changes the target
	// mass, so the raw warm start would converge at the worst-case rate
	// (1-r) — empirically slower than restarting cold. Redistributing the
	// mass deficit over emitting vertices, degree-weighted (the stationary
	// mode's shape on a symmetrized graph), zeroes the slow mode's
	// coefficient and restores the delta-localized convergence the warm
	// start is for. The fixpoint is unchanged, so conformance is unaffected.
	if p.primed {
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
	}

	m := backend.FromCSR(in)
	if p.mul == nil {
		p.mul = backend.NewSumVecMul(p.pool, m)
	} else {
		p.mul.Rebind(m)
	}
	ranks, next, sweeps, converged := pageRankSweeps(p.pool, p.mul, outDeg, p.opt.RandomJump, p.opt.Tolerance,
		p.opt.MaxSweeps, ranks, next, contrib, nil)
	if !converged {
		return nil, sweeps, fmt.Errorf("native: incremental pagerank did not converge to %g in %d sweeps",
			p.opt.Tolerance, p.opt.MaxSweeps)
	}
	// The sweeps swap the two buffers; persist the final orientation.
	p.ranks = ranks
	p.next = next
	p.epoch = s.Epoch()
	p.primed = true
	return ranks, sweeps, nil
}

// growFloat64 extends buf to length n, preserving its prefix.
func growFloat64(buf []float64, n int) []float64 {
	for len(buf) < n {
		buf = append(buf, 0)
	}
	return buf
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

// IncrementalBFS maintains single-source BFS distances across the epochs
// of a versioned insert-only graph, directed or symmetrized. The first
// Update runs the backend pool's full direction-switching traversal; every
// later one is a RepairBFS of the distances it kept.
type IncrementalBFS struct {
	source uint32
	pool   *backend.Pool

	epoch  graph.Epoch
	primed bool
	dist   []int32
}

// NewIncrementalBFS builds the kernel for traversals from source on the
// caller's pool, which must outlive it.
func NewIncrementalBFS(pool *backend.Pool, source uint32) *IncrementalBFS {
	return &IncrementalBFS{source: source, pool: pool}
}

// Epoch reports the last epoch Update refreshed against.
func (b *IncrementalBFS) Epoch() graph.Epoch { return b.epoch }

// Update refreshes the distances for the given epoch. added is the set of
// directed edges this epoch introduced (ApplyDelta's cleaned output);
// passing the full set is what makes the repair exact. The returned slice
// is kernel state, valid until the next Update.
func (b *IncrementalBFS) Update(s *graph.Snapshot, added []graph.Edge) ([]int32, error) {
	m := backend.FromSnapshot(s)
	if int64(b.source) >= int64(m.NumRows) {
		return nil, fmt.Errorf("native: bfs source %d outside vertex space [0,%d)", b.source, m.NumRows)
	}
	if b.primed {
		b.dist = RepairBFS(m, b.dist, added)
	} else {
		b.dist, _ = BFS(b.pool, m, b.source, "native.bfs.level", nil)
		b.primed = true
	}
	b.epoch = s.Epoch()
	return b.dist, nil
}
