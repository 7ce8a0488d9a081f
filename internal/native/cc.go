package native

import (
	"fmt"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// Connected components for epoch-versioned graphs. Labels are canonical —
// every vertex ends up labeled with the minimum vertex id of its
// component — which is what makes the incremental kernel's conformance
// pin bit-identical: any algorithm computing min-id labels on the same
// graph produces the same array.

// ConnectedComponents computes min-id component labels of an undirected
// (symmetrized) graph with synchronous min-label sweeps on the backend
// pool: next[v] = min(cur[v], min over neighbors cur[w]), iterated to a
// fixpoint. Jacobi-style double buffering makes every sweep deterministic
// at any worker count.
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

// IncrementalCC maintains min-id component labels across the epochs of a
// versioned (symmetrized, insert-only) graph. Insertions only merge
// components, so the refresh seeds a worklist from delta edges whose
// endpoints carry different labels and floods the smaller label through
// the losing component — work proportional to the merged region. The
// first Update runs the full sweep kernel on the backend pool.
type IncrementalCC struct {
	pool *backend.Pool

	epoch  graph.Epoch
	primed bool
	labels []uint32
	work   []uint32
}

// NewIncrementalCC builds the kernel on the caller's pool, which must
// outlive it.
func NewIncrementalCC(pool *backend.Pool) *IncrementalCC {
	return &IncrementalCC{pool: pool}
}

// Epoch reports the last epoch Update refreshed against.
func (c *IncrementalCC) Epoch() graph.Epoch { return c.epoch }

// Update refreshes the labels for the given epoch; added is the epoch's
// cleaned delta (ApplyDelta's output). The returned slice is kernel
// state, valid until the next Update.
func (c *IncrementalCC) Update(s *graph.Snapshot, added []graph.Edge) ([]uint32, error) {
	g := s.CSR()
	n := int(g.NumVertices)
	if n == 0 {
		return nil, fmt.Errorf("native: incremental cc on an empty graph")
	}
	if !c.primed {
		c.labels = ConnectedComponents(c.pool, backend.FromSnapshot(s))
		c.epoch = s.Epoch()
		c.primed = true
		return c.labels, nil
	}

	// New vertices start as their own singleton components.
	for len(c.labels) < n {
		c.labels = append(c.labels, graph.MustU32(int64(len(c.labels))))
	}
	labels := c.labels[:n]

	// Seed: every delta edge bridging two labels lowers the greater side.
	work := c.work[:0]
	for _, e := range added {
		lu, lv := labels[e.Src], labels[e.Dst]
		switch {
		case lu < lv:
			labels[e.Dst] = lu
			work = append(work, e.Dst)
		case lv < lu:
			labels[e.Src] = lv
			work = append(work, e.Src)
		}
	}
	// Flood: min labels propagate monotonically, so each pop either
	// improves neighbors or terminates; the graph's symmetry carries the
	// label through the whole losing component.
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		lv := labels[v]
		for _, w := range g.Neighbors(v) {
			if labels[w] > lv {
				labels[w] = lv
				work = append(work, w)
			}
		}
	}
	c.labels = labels
	c.work = work[:0]
	c.epoch = s.Epoch()
	return labels, nil
}
