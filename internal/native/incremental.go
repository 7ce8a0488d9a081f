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

// IncrementalBFS maintains single-source BFS distances across the epochs
// of a versioned (symmetrized, insert-only) graph. Epoch N+1's distances
// can only shrink, so the refresh seeds a repair frontier from the delta
// edges that create shortcuts and relaxes outward in level order — work
// proportional to the region the delta actually improved, not the graph.
// The first Update runs the backend pool's full direction-switching
// traversal; repairs are serial because repair frontiers are tiny
// compared to the graph (falling out of the delta, not the frontier).
type IncrementalBFS struct {
	source uint32
	pool   *backend.Pool

	epoch  graph.Epoch
	primed bool
	dist   []int32
	// buckets[d] holds vertices whose tentative distance improved to d
	// during the current repair.
	buckets [][]uint32
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
	g := s.CSR()
	n := int(g.NumVertices)
	if int(b.source) >= n {
		return nil, fmt.Errorf("native: bfs source %d outside vertex space [0,%d)", b.source, n)
	}

	if !b.primed {
		b.dist, _ = BFS(b.pool, backend.FromSnapshot(s), b.source, "native.bfs.level", nil)
		b.epoch = s.Epoch()
		b.primed = true
		return b.dist, nil
	}

	// Grow the distance array for vertices the epoch introduced; they are
	// unreachable until a delta edge connects them.
	for len(b.dist) < n {
		b.dist = append(b.dist, -1)
	}
	dist := b.dist[:n]

	// Seed the repair: a delta edge (u,v) with a reached tail creates a
	// shortcut when it beats v's current distance. Insertions never
	// lengthen paths, so every stale distance is an overestimate fixed by
	// relaxing these seeds outward.
	maxLevel := -1 // no seeds → no repair
	push := func(v uint32, d int32) {
		for len(b.buckets) <= int(d) {
			b.buckets = append(b.buckets, nil)
		}
		b.buckets[d] = append(b.buckets[d], v)
		if int(d) > maxLevel {
			maxLevel = int(d)
		}
	}
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

	// Relax in level order (a bucket queue over unit weights): each popped
	// vertex is final when its recorded distance still matches its bucket,
	// so each improved vertex expands exactly once.
	for d := 0; d <= maxLevel; d++ {
		dd := graph.MustI32(int64(d))
		for i := 0; i < len(b.buckets[d]); i++ {
			v := b.buckets[d][i]
			if dist[v] != dd {
				continue // improved again by a lower bucket; stale entry
			}
			nd := dd + 1
			for _, w := range g.Neighbors(v) {
				if dw := dist[w]; dw < 0 || dw > nd {
					dist[w] = nd
					push(w, nd)
				}
			}
		}
		b.buckets[d] = b.buckets[d][:0]
	}
	b.dist = dist
	b.epoch = s.Epoch()
	return dist, nil
}
