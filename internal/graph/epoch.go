package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Epoch numbers the immutable versions of a mutating graph. Epoch 0 is the
// base snapshot a Versioned graph was created from; every applied delta
// advances it by one.
type Epoch uint64

// Snapshot is one immutable epoch of a versioned graph: a CSR that will
// never be mutated again, tagged with the epoch that produced it. Readers
// hold a Snapshot for the duration of a computation and are completely
// isolated from later deltas — a snapshot's arrays are never shared with
// any other epoch's mutable state.
//
// Snapshots are cheap handles; engines must nonetheless not retain one
// inside long-lived state across epoch advances: re-fetch via
// Versioned.Current at the top of every operation so staleness is a
// per-operation choice, not an accident.
type Snapshot struct {
	epoch Epoch
	csr   *CSR
}

// NewSnapshot wraps an already-prepared CSR as the given epoch. The CSR
// must not be mutated afterwards; ownership passes to the snapshot.
func NewSnapshot(epoch Epoch, csr *CSR) *Snapshot {
	return &Snapshot{epoch: epoch, csr: csr}
}

// Epoch reports which version of the graph this snapshot is.
func (s *Snapshot) Epoch() Epoch { return s.epoch }

// CSR returns the snapshot's immutable graph. Callers must not modify it.
func (s *Snapshot) CSR() *CSR { return s.csr }

// NumVertices reports the snapshot's vertex count.
func (s *Snapshot) NumVertices() uint32 { return s.csr.NumVertices }

// NumEdges reports the snapshot's directed edge count.
func (s *Snapshot) NumEdges() int64 { return s.csr.NumEdges() }

// DeltaOptions configures how a Versioned graph ingests raw delta edges,
// mirroring Builder's per-workload preparation: BFS-oriented graphs
// symmetrize every insertion, PageRank-oriented graphs keep direction.
type DeltaOptions struct {
	// Symmetrize inserts both (u,v) and (v,u) for every delta edge.
	Symmetrize bool
	// DropSelfLoops discards (v,v) delta edges.
	DropSelfLoops bool
}

// DeltaStats reports what one ApplyDelta call actually changed.
type DeltaStats struct {
	// Added counts directed edges newly present in the epoch (after
	// orientation, dedup against the delta itself, and dedup against the
	// base).
	Added int64
	// Duplicates counts delta edges dropped because they were already in
	// the base epoch or repeated within the delta (post-orientation).
	Duplicates int64
	// SelfLoops counts delta edges dropped by DropSelfLoops.
	SelfLoops int64
	// NewVertices counts vertices beyond the previous epoch's id space
	// that the delta introduced.
	NewVertices uint32
}

// Versioned is a graph that evolves as a sequence of immutable epoch
// snapshots. Readers call Current (a single atomic load, never blocked)
// and keep computing on that epoch while ApplyDelta merge-builds the next
// one into freshly allocated arrays; writers are serialized by an internal
// mutex. This is the snapshot-isolation design the streaming roadmap item
// calls for: epoch N's arrays are never touched once epoch N+1 exists.
type Versioned struct {
	opts DeltaOptions

	// mu serializes writers (ApplyDelta); readers never take it.
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]
}

// NewVersioned wraps a prepared base CSR as epoch 0 of a versioned graph.
// The CSR's adjacency lists must be sorted (Builder's Dedup or
// SortAdjacency options produce this) because delta merging is a sorted
// merge per vertex; ownership of the CSR passes to the versioned graph.
// Weighted graphs are not yet supported on the delta path.
func NewVersioned(base *CSR, opts DeltaOptions) (*Versioned, error) {
	if err := checkVersionedBase(base); err != nil {
		return nil, err
	}
	v := &Versioned{opts: opts}
	v.cur.Store(NewSnapshot(0, base))
	return v, nil
}

// ResumeVersioned re-creates a versioned graph whose current snapshot is s
// — typically one decoded from persistence (graph.DecodeSnapshot or
// ckpt.EpochStore) — preserving its epoch number so later deltas continue
// the original sequence instead of restarting at zero. The snapshot's CSR
// must satisfy the same contract as NewVersioned's base; ownership passes
// to the versioned graph. The codec does not carry Symmetrized, so under
// DeltaOptions.Symmetrize the CSR is checked against its transpose once,
// here, and marked when every edge has its reverse; later epochs keep the
// mark as a symmetrizing delta does for a built graph.
func ResumeVersioned(s *Snapshot, opts DeltaOptions) (*Versioned, error) {
	if s == nil {
		return nil, errors.New("graph: resuming a versioned graph needs a snapshot")
	}
	if err := checkVersionedBase(s.csr); err != nil {
		return nil, err
	}
	if opts.Symmetrize && !s.csr.symmetrized && s.csr.Symmetric() {
		s.csr.symmetrized = true
	}
	v := &Versioned{opts: opts}
	v.cur.Store(s)
	return v, nil
}

// checkVersionedBase validates the delta-path contract for a CSR entering
// a versioned graph (at epoch 0 or on resume).
func checkVersionedBase(base *CSR) error {
	if base == nil {
		return errors.New("graph: versioned graph needs a base CSR")
	}
	if base.Weighted() {
		return errors.New("graph: versioned graphs do not support weighted CSRs yet")
	}
	if base.targetSpace != base.NumVertices {
		return errors.New("graph: versioned graphs must be square (no bipartite orientations)")
	}
	if !base.SortedAdjacency() {
		return errors.New("graph: versioned base CSR must have sorted adjacency (build with Dedup or SortAdjacency)")
	}
	return nil
}

// Current returns the latest snapshot: one atomic load, safe to call
// concurrently with ApplyDelta, and never blocked by an in-progress build.
func (v *Versioned) Current() *Snapshot { return v.cur.Load() }

// Epoch reports the latest epoch number.
func (v *Versioned) Epoch() Epoch { return v.cur.Load().epoch }

// Options reports the graph's delta-ingestion options (how raw delta
// edges are oriented), letting a service decide per-graph which queries
// make sense — triangle counting, for example, needs the symmetrized
// orientation.
func (v *Versioned) Options() DeltaOptions { return v.opts }

// minDeltaGrowth is how many vertices one delta may always add: a delta may
// grow an n-vertex graph to n + max(n, minDeltaGrowth) vertices, no more.
const minDeltaGrowth = 1 << 16

// ApplyDelta ingests a batch of raw edge insertions and publishes the next
// epoch. The delta is copied (the caller's slice is untouched), oriented
// per the graph's DeltaOptions, dedup-sorted with the same parallel radix
// machinery graph builds use, deduplicated against the base epoch, and
// merge-built into a brand-new CSR — the previous epoch's arrays are
// never written, so concurrent readers of any earlier snapshot are
// unaffected. Vertex ids beyond the current space grow the graph.
//
// It returns the new snapshot, the cleaned directed edges that were
// actually added (the "touched" set incremental kernels repair from; the
// slice is freshly allocated and owned by the caller), and ingestion
// statistics. An empty or fully-duplicate delta still advances the epoch,
// so epoch numbers always count ApplyDelta calls.
//
// Two deltas are errors, refused before the lock and before any
// allocation, that publish nothing: an
// endpoint of math.MaxUint32, whose vertex count n = id+1 would not fit a
// uint32, and one that would grow an n-vertex graph past
// n + max(n, minDeltaGrowth) vertices, since every new vertex costs the
// merged epoch its offsets whatever the delta weighs.
func (v *Versioned) ApplyDelta(delta []Edge) (*Snapshot, []Edge, DeltaStats, error) {
	have := uint64(v.Current().NumVertices())
	limit := have + max(have, minDeltaGrowth)
	for _, e := range delta {
		if e.Src == math.MaxUint32 || e.Dst == math.MaxUint32 {
			return nil, nil, DeltaStats{}, fmt.Errorf("graph: delta edge (%d,%d): vertex ids must be below %d", e.Src, e.Dst, math.MaxUint32)
		}
		if top := uint64(max(e.Src, e.Dst)) + 1; top > limit {
			return nil, nil, DeltaStats{}, fmt.Errorf("graph: delta edge (%d,%d): would grow the graph from %d to %d vertices, past the %d one delta may reach", e.Src, e.Dst, have, top, limit)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()

	base := v.cur.Load()
	g := base.csr
	var st DeltaStats

	// Orient the delta into a private buffer.
	buf := make([]Edge, 0, len(delta)*2)
	for _, e := range delta {
		if e.Src == e.Dst {
			if v.opts.DropSelfLoops {
				st.SelfLoops++
				continue
			}
			buf = append(buf, e)
			continue
		}
		buf = append(buf, e)
		if v.opts.Symmetrize {
			buf = append(buf, Edge{Src: e.Dst, Dst: e.Src})
		}
	}

	// Grow the vertex space to cover the delta.
	n := g.NumVertices
	for _, e := range buf {
		if e.Src >= n {
			n = e.Src + 1
		}
		if e.Dst >= n {
			n = e.Dst + 1
		}
	}
	st.NewVertices = n - g.NumVertices

	// Dedup-sort the delta (radix path for large batches), then drop edges
	// already present in the base epoch. Base adjacency is sorted, so the
	// membership probe is a binary search.
	sortEdgesByKey(buf)
	w := 0
	for i, e := range buf {
		if i > 0 && e == buf[i-1] {
			st.Duplicates++
			continue
		}
		if e.Src < g.NumVertices && g.HasEdge(e.Src, e.Dst) {
			st.Duplicates++
			continue
		}
		buf[w] = e
		w++
	}
	added := buf[:w]
	st.Added = int64(len(added))

	merged := mergeCSR(g, n, added)
	merged.symmetrized = g.symmetrized && v.opts.Symmetrize
	next := NewSnapshot(base.epoch+1, merged)
	v.cur.Store(next)
	return next, added, st, nil
}

// mergeCSR builds a new CSR over n vertices holding the union of the base
// graph's edges and the added edges, which must be sorted by (Src, Dst),
// contain no duplicates, and not overlap the base. Both inputs have sorted
// adjacency, so each vertex's output list is a linear merge and the result
// keeps sorted adjacency. All arrays are freshly allocated; the base is
// only read.
func mergeCSR(g *CSR, n uint32, added []Edge) *CSR {
	// Per-vertex delta segment boundaries: added is sorted by Src, so the
	// segment for vertex v is a contiguous run.
	deltaOff := make([]int64, n+1)
	for _, e := range added {
		deltaOff[e.Src+1]++
	}
	for i := 1; i < len(deltaOff); i++ {
		deltaOff[i] += deltaOff[i-1]
	}

	offsets := make([]int64, n+1)
	for v := uint32(0); v < n; v++ {
		var deg int64
		if v < g.NumVertices {
			deg = g.Degree(v)
		}
		offsets[v+1] = deg + (deltaOff[v+1] - deltaOff[v])
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}

	targets := make([]uint32, offsets[n])
	// Scatter in parallel: each vertex owns a disjoint output range, so
	// the merge pass needs no synchronization. Vertex ranges are split by
	// output edges to keep power-law skew off the critical path.
	forEdgeBalanced(offsets, func(lo, hi int) {
		for v := uint32(lo); v < uint32(hi); v++ {
			out := targets[offsets[v]:offsets[v+1]]
			var baseAdj []uint32
			if v < g.NumVertices {
				baseAdj = g.Neighbors(v)
			}
			add := added[deltaOff[v]:deltaOff[v+1]]
			i, j, k := 0, 0, 0
			for i < len(baseAdj) && j < len(add) {
				if baseAdj[i] <= add[j].Dst {
					out[k] = baseAdj[i]
					i++
				} else {
					out[k] = add[j].Dst
					j++
				}
				k++
			}
			for ; i < len(baseAdj); i++ {
				out[k] = baseAdj[i]
				k++
			}
			for ; j < len(add); j++ {
				out[k] = add[j].Dst
				k++
			}
		}
	})
	return &CSR{NumVertices: n, Offsets: offsets, Targets: targets, targetSpace: n, sortedAdj: true}
}
