package backend

import (
	"math/bits"

	"graphmaze/internal/bitvec"
	"graphmaze/internal/trace"
)

// Traversal tuning constants, shared with the native engine's historical
// values so lowering changes nothing observable.
const (
	// serialGraphEdges: below this edge count the whole traversal runs on
	// one core — goroutine fan-out costs more than it saves.
	serialGraphEdges = 1 << 19
	// serialFrontierThreshold: a level with a smaller frontier expands
	// serially even on large graphs.
	serialFrontierThreshold = 512
	// frontierGrain is the dynamic chunk size for frontier expansion: the
	// per-vertex cost is its degree, which varies by orders of magnitude
	// on a power-law graph, so workers claim small chunks.
	frontierGrain = 128
)

// Traversal is the reusable direction-switching level-synchronous BFS
// kernel (the sparse-frontier half of the backend). Push levels expand
// the frontier along out-edges, claiming targets through the atomic
// visited bitset; pull levels scan each unvisited vertex's in-edges for a
// visited parent (chosen when the frontier's edge volume is a large
// fraction of the untraversed graph, the [28]-style heuristic the native
// engine always used). All scratch —
// visited bits, a pre-claim snapshot, both frontier buffers — is owned by
// the kernel and reused across levels and across Run calls.
//
// Distances are deterministic at any worker count because levels are
// synchronous: a vertex's distance is the level of the first wave that
// reaches it, independent of which worker claims it.
type Traversal struct {
	pool *Pool
	// m is the out-edge matrix push levels expand; in is its transpose,
	// the in-edge matrix pull levels read parents from (m itself on a
	// symmetric graph).
	m, in *Matrix
	// span names the per-level trace span ("native.bfs.level" when the
	// native engine drives the kernel).
	span string
	tr   *trace.Tracer

	visited  *bitvec.Vector
	snapshot []uint64
	frontier []uint32
	next     []uint32

	// tuning, overridable in tests to force specific kernels
	serialEdges    int64
	serialFrontier int
	forceDir       int // -1 auto (heuristic), 0 push, 1 pull

	// per-dispatch state
	dist  []int32
	level int32
}

// NewTraversal builds the kernel for a symmetric m, whose rows are both
// out- and in-edges. spanName names the per-level trace span; tr may be
// nil.
func NewTraversal(pool *Pool, m *Matrix, spanName string, tr *trace.Tracer) *Traversal {
	return NewDirectedTraversal(pool, m, m, spanName, tr)
}

// NewDirectedTraversal builds the kernel for the out-edge matrix out,
// whose in-edge matrix (transpose) is in; on a symmetric graph in may be
// out itself. Pull levels read in's rows, so the traversal is exact on a
// directed graph at every size.
func NewDirectedTraversal(pool *Pool, out, in *Matrix, spanName string, tr *trace.Tracer) *Traversal {
	return &Traversal{
		pool:           pool,
		m:              out,
		in:             in,
		span:           spanName,
		tr:             tr,
		visited:        bitvec.New(out.NumRows),
		snapshot:       make([]uint64, (int(out.NumRows)+63)/64),
		serialEdges:    serialGraphEdges,
		serialFrontier: serialFrontierThreshold,
		forceDir:       -1,
	}
}

func (t *Traversal) degree(v uint32) int64 { return t.m.Offsets[v+1] - t.m.Offsets[v] }

func (t *Traversal) row(v uint32) []uint32 { return t.m.Cols[t.m.Offsets[v]:t.m.Offsets[v+1]] }

// Run traverses from source, writing levels into dist (len NumRows, must
// be prefilled with -1 except dist[source] = 0) and returns the number of
// levels. The kernel's scratch is reset internally, so Run may be called
// repeatedly.
func (t *Traversal) Run(dist []int32, source uint32) int {
	t.visited.Reset()
	t.visited.Set(source)
	t.dist = dist
	frontier := append(t.frontier[:0], source)
	level := int32(0)
	frontierEdges := t.degree(source)
	remaining := t.m.NNZ()

	if remaining < t.serialEdges {
		for len(frontier) > 0 {
			level++
			next := t.next[:0]
			for _, v := range frontier {
				for _, c := range t.row(v) {
					if !t.visited.Get(c) {
						t.visited.Set(c)
						dist[c] = level
						next = append(next, c)
					}
				}
			}
			frontier, t.next = next, frontier
		}
		t.frontier, t.dist = frontier, nil
		return int(level)
	}

	// Frontier-size distribution: levels span several orders of magnitude
	// on power-law graphs, and the histogram keeps that shape where the
	// per-level spans only keep instances.
	frontierHist := t.tr.Hist("backend.frontier_size")
	for len(frontier) > 0 {
		level++
		t.level = level
		frontierHist.Record(0, int64(len(frontier)))
		sp := t.tr.Begin(t.span, "bfs level").
			Arg("level", float64(level)).Arg("frontier", float64(len(frontier)))
		pull := frontierEdges*3 > remaining
		if t.forceDir >= 0 {
			pull = t.forceDir == 1
		}
		if pull {
			sp.Arg("direction", 1) // pull (bottom-up)
			frontier = t.pull(frontier)
		} else {
			sp.Arg("direction", 0) // push (top-down)
			frontier = t.push(frontier)
		}
		remaining -= frontierEdges
		frontierEdges = 0
		for _, v := range frontier {
			frontierEdges += t.degree(v)
		}
		sp.End()
	}
	t.frontier, t.dist = frontier, nil
	return int(level)
}

// push expands the frontier. Small frontiers run serially (discovery
// order); large ones claim dynamic chunks through the atomic bitset and
// the next frontier is materialized by diffing the visited words against
// a pre-expansion snapshot — ascending vertex order, no per-chunk staging
// buffers, deterministic at any worker count.
func (t *Traversal) push(frontier []uint32) []uint32 {
	next := t.next[:0]
	if len(frontier) < t.serialFrontier {
		for _, v := range frontier {
			for _, c := range t.row(v) {
				if !t.visited.Get(c) {
					t.visited.Set(c)
					t.dist[c] = t.level
					next = append(next, c)
				}
			}
		}
		t.next, t.frontier = frontier, nil
		return next
	}
	copy(t.snapshot, t.visited.Words())
	t.frontier = frontier
	t.pool.RunDynamic((*pushRunner)(t), len(frontier), frontierGrain)
	next = t.diffSnapshot(next)
	t.next, t.frontier = frontier, nil
	return next
}

// pushRunner is Traversal's push-phase chunkRunner ([lo, hi) indexes the
// frontier slice).
type pushRunner Traversal

func (p *pushRunner) runChunk(worker, lo, hi int) {
	t := (*Traversal)(p)
	for i := lo; i < hi; i++ {
		for _, c := range t.row(t.frontier[i]) {
			if t.visited.SetAtomic(c) {
				t.dist[c] = t.level
			}
		}
	}
}

// pull scans all vertices for an unvisited one with a frontier parent
// among its in-neighbours.
// Workers write only distances of distinct unvisited vertices (the
// visited bits are read-only during the scan); the next frontier and the
// bit updates are materialized afterwards by one pass over the distance
// array, keeping the parallel phase free of shared writes.
func (t *Traversal) pull(frontier []uint32) []uint32 {
	t.pool.RunDynamic((*pullRunner)(t), int(t.m.NumRows), 0)
	next := t.next[:0]
	for v := 0; v < int(t.m.NumRows); v++ {
		if t.dist[v] == t.level && !t.visited.Get(uint32(v)) {
			t.visited.Set(uint32(v))
			next = append(next, uint32(v))
		}
	}
	t.next = frontier
	return next
}

// pullRunner is Traversal's pull-phase chunkRunner ([lo, hi) is a vertex
// range).
type pullRunner Traversal

func (p *pullRunner) runChunk(worker, lo, hi int) {
	t := (*Traversal)(p)
	in := t.in
	want := t.level - 1
	for v := lo; v < hi; v++ {
		if t.visited.Get(uint32(v)) {
			continue
		}
		for _, c := range in.Cols[in.Offsets[v]:in.Offsets[v+1]] {
			if t.visited.Get(c) && t.dist[c] == want {
				t.dist[v] = t.level
				break
			}
		}
	}
}

// diffSnapshot appends, in ascending order, every vertex whose visited
// bit was set since the last snapshot copy.
func (t *Traversal) diffSnapshot(out []uint32) []uint32 {
	words := t.visited.Words()
	for w, cur := range words {
		diff := cur &^ t.snapshot[w]
		for diff != 0 {
			out = append(out, uint32(w*64+bits.TrailingZeros64(diff)))
			diff &= diff - 1
		}
	}
	return out
}

// Expander is the persistent-claims sparse expansion kernel: each Expand
// call claims the not-yet-claimed targets of the frontier and returns
// them. CombBLAS BFS (frontier = newly discovered vertices per level),
// Giraph's lowered BFS, and SociaLite's lowered recursive rules all
// reduce to exactly this operation. Claims persist across calls — the
// claimed set is the union of everything ever expanded or seeded via
// Claim.
type Expander struct {
	pool     *Pool
	m        *Matrix
	claimed  *bitvec.Vector
	snapshot []uint64
	frontier []uint32
	buf      []uint32
}

// NewExpander builds an expander over m with an empty claimed set.
func NewExpander(pool *Pool, m *Matrix) *Expander {
	return &Expander{
		pool:     pool,
		m:        m,
		claimed:  bitvec.New(m.NumRows),
		snapshot: make([]uint64, (int(m.NumRows)+63)/64),
	}
}

// Claim marks v as already reached, so expansion never emits it.
func (e *Expander) Claim(v uint32) { e.claimed.Set(v) }

// Expand claims the unclaimed targets of the frontier's rows and appends
// them to out (which may be nil). Small frontiers expand serially in
// discovery order; large ones in parallel, returned in ascending order —
// callers treat the result as a set.
func (e *Expander) Expand(frontier []uint32, out []uint32) []uint32 {
	m := e.m
	if len(frontier) < serialFrontierThreshold {
		for _, v := range frontier {
			for _, c := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
				if !e.claimed.Get(c) {
					e.claimed.Set(c)
					out = append(out, c)
				}
			}
		}
		return out
	}
	copy(e.snapshot, e.claimed.Words())
	e.frontier = frontier
	e.pool.RunDynamic(e, len(frontier), frontierGrain)
	e.frontier = nil
	words := e.claimed.Words()
	for w, cur := range words {
		diff := cur &^ e.snapshot[w]
		for diff != 0 {
			out = append(out, uint32(w*64+bits.TrailingZeros64(diff)))
			diff &= diff - 1
		}
	}
	return out
}

func (e *Expander) runChunk(worker, lo, hi int) {
	m := e.m
	for i := lo; i < hi; i++ {
		v := e.frontier[i]
		for _, c := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
			e.claimed.SetAtomic(c)
		}
	}
}

// ExpandInto is the serial one-shot expansion with caller-provided marks,
// preserving the exact discovery-order contract of combblas.SpMSpV: emit
// each distinct target of the frontier once, in first-encounter order,
// and leave marks clean for the next call.
func ExpandInto(m *Matrix, frontier []uint32, marks []bool, out []uint32) []uint32 {
	base := len(out)
	for _, v := range frontier {
		for _, c := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
			if !marks[c] {
				marks[c] = true
				out = append(out, c)
			}
		}
	}
	for _, c := range out[base:] {
		marks[c] = false
	}
	return out
}
