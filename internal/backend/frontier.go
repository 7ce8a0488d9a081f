package backend

import (
	"math/bits"

	"graphmaze/internal/bitvec"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Traversal tuning constants, shared with the native engine's historical
// values so lowering changes nothing observable.
const (
	// serialGraphEdges: below this edge count every phase of a traversal
	// runs inline on its caller — goroutine fan-out costs more than it
	// saves. It picks where a level runs, never its direction.
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
// visited bitset; pull levels look for a frontier parent among the
// in-edges of each unvisited vertex that has any (chosen when the
// frontier's edge volume is a large fraction of the untraversed graph,
// the [28]-style heuristic the native engine always used). Both kinds run
// at every graph size, whole (Run) or one level per call of a framework's
// own loop (Claim, Step). All scratch — visited bits, a pre-claim
// snapshot, the frontier lists and bitmaps — is owned by the kernel and
// reused across levels and across calls.
//
// Distances are deterministic at any worker count because levels are
// synchronous: a vertex's distance is the level of the first wave that
// reaches it, independent of which worker claims it.
type Traversal struct {
	pool *par.Pool
	// m is the out-edge matrix push levels expand; in is its transpose,
	// the in-edge matrix pull levels read parents from (m itself on a
	// symmetric graph), or nil, which makes every level a push.
	m, in *Matrix
	// span names Run's per-level trace span ("native.bfs.level" when the
	// native engine drives the kernel).
	span string
	tr   *trace.Tracer

	visited *bitvec.Vector
	// snapshot is the visited words before a parallel push level, built by
	// the first one.
	snapshot []uint64
	// frontier and next are Run's two frontier lists, kept across calls;
	// expanding is the list a parallel push level is reading.
	frontier, next, expanding []uint32
	// Pull state, built by the first pull level: occIn is in's occupancy
	// words, front the frontier as a bitmap, found the bitmap a pull level
	// writes its discoveries into (the two swap after it).
	occIn, front, found []uint64

	// tuning, overridable in tests to force specific kernels
	serialEdges    int64
	serialFrontier int
	forceDir       int // -1 auto (heuristic), 0 push, 1 pull

	// remaining is the out-edge volume no level has expanded yet (pulls).
	remaining int64
	// per-level state; dist is nil during a Step
	dist   []int32
	level  int32
	inline bool // the graph is under serialEdges: no phase uses the pool
}

// NewTraversal builds the kernel for a symmetric m, whose rows are both
// out- and in-edges. spanName names the per-level trace span; tr may be
// nil.
func NewTraversal(pool *par.Pool, m *Matrix, spanName string, tr *trace.Tracer) *Traversal {
	return NewDirectedTraversal(pool, m, m, spanName, tr)
}

// NewDirectedTraversal builds the kernel for the out-edge matrix out,
// whose in-edge matrix (transpose) is in; on a symmetric graph in may be
// out itself. Pull levels read in's rows, so the traversal is exact on a
// directed graph at every size. A nil in runs every level as a push,
// which is exact on any graph.
func NewDirectedTraversal(pool *par.Pool, out, in *Matrix, spanName string, tr *trace.Tracer) *Traversal {
	return &Traversal{
		pool:           pool,
		m:              out,
		in:             in,
		span:           spanName,
		tr:             tr,
		visited:        bitvec.New(out.NumRows),
		serialEdges:    serialGraphEdges,
		serialFrontier: serialFrontierThreshold,
		forceDir:       -1,
		remaining:      out.NNZ(),
	}
}

func (t *Traversal) degree(v uint32) int64 { return t.m.Offsets[v+1] - t.m.Offsets[v] }

func (t *Traversal) row(v uint32) []uint32 { return t.m.Cols[t.m.Offsets[v]:t.m.Offsets[v+1]] }

// pulls is every level's direction rule: pull when the frontier's
// out-edges are over a third of the edges not yet expanded and there is an
// in-edge matrix, push otherwise. It charges the frontier's edges.
func (t *Traversal) pulls(frontierEdges int64) bool {
	pull := frontierEdges*3 > t.remaining
	if t.forceDir >= 0 {
		pull = t.forceDir == 1
	}
	t.remaining -= frontierEdges
	return pull && t.in != nil
}

// Run traverses from source, writing levels into dist (len NumRows, must
// be prefilled with -1 except dist[source] = 0) and returns the number of
// levels. The kernel's scratch is reset internally, so Run may be called
// repeatedly.
func (t *Traversal) Run(dist []int32, source uint32) int {
	t.visited.Reset()
	t.visited.Set(source)
	t.dist, t.remaining = dist, t.m.NNZ()
	frontier := append(t.frontier[:0], source)
	// size and frontierEdges describe the frontier. After a pull level it
	// is held only as front's bits (bitsOnly), and a push level lists it.
	size, frontierEdges := 1, t.degree(source)
	bitsOnly := false
	level := int32(0)
	t.inline = t.m.NNZ() < t.serialEdges

	// Frontier-size distribution: levels span several orders of magnitude
	// on power-law graphs, and the histogram keeps that shape where the
	// per-level spans only keep instances.
	frontierHist := t.tr.Registry().Hist("backend.frontier_size")
	for size > 0 {
		level++
		t.level = level
		frontierHist.Record(0, int64(size))
		sp := t.tr.Begin(t.span, "bfs level").
			Arg("level", float64(level)).Arg("frontier", float64(size))
		if t.pulls(frontierEdges) {
			sp.Arg("direction", 1) // pull (bottom-up)
			if !bitsOnly {
				t.setFront(frontier)
			}
			t.pull()
			size, frontierEdges = t.frontStats()
			bitsOnly = true
		} else {
			sp.Arg("direction", 0) // push (top-down)
			if bitsOnly {
				frontier = t.listFront(frontier[:0])
			}
			next := t.push(frontier, t.next[:0])
			t.next, frontier = frontier, next
			size, frontierEdges = len(frontier), 0
			for _, v := range frontier {
				frontierEdges += t.degree(v)
			}
			bitsOnly = false
		}
		sp.End()
	}
	t.frontier, t.dist = frontier, nil
	return int(level)
}

// Claim marks v as reached, so no later Step returns it.
func (t *Traversal) Claim(v uint32) { t.visited.Set(v) }

// Step advances one level from frontier: it claims every unclaimed vertex
// with an edge from a frontier vertex, appends those vertices to out and
// returns it, writing no distances. A serial push (any push on a graph
// under the cutover, or from fewer than 512 vertices) appends them in
// discovery order, any other level in ascending order. Claims persist
// across Steps; a Run resets them.
func (t *Traversal) Step(frontier, out []uint32) []uint32 {
	t.inline = t.m.NNZ() < t.serialEdges
	if t.in == nil {
		return t.push(frontier, out) // no level can pull: skip the rule
	}
	var edges int64
	for _, v := range frontier {
		edges += t.degree(v)
	}
	if t.pulls(edges) {
		t.setFront(frontier)
		t.pull()
		return t.listFront(out)
	}
	return t.push(frontier, out)
}

// push expands the frontier and appends what it claims to next. Small
// frontiers, and every frontier of a graph under the cutover, run serially
// (discovery order); large ones claim dynamic chunks through the atomic
// bitset and the claims are listed by diffing the visited words against a
// pre-expansion snapshot — ascending vertex order, no per-chunk staging
// buffers, deterministic at any worker count.
func (t *Traversal) push(frontier, next []uint32) []uint32 {
	if t.inline || len(frontier) < t.serialFrontier {
		dist, level := t.dist, t.level
		for _, v := range frontier {
			for _, c := range t.row(v) {
				if !t.visited.Get(c) {
					t.visited.Set(c)
					if dist != nil {
						dist[c] = level
					}
					next = append(next, c)
				}
			}
		}
		return next
	}
	if t.snapshot == nil {
		t.snapshot = make([]uint64, len(t.visited.Words()))
	}
	copy(t.snapshot, t.visited.Words())
	t.expanding = frontier
	t.pool.RunDynamic((*pushRunner)(t), len(frontier), frontierGrain)
	t.expanding = nil
	return t.diffSnapshot(next)
}

// pushRunner is Traversal's push-phase par.Runner ([lo, hi) indexes the
// expanding list).
type pushRunner Traversal

func (p *pushRunner) RunChunk(worker, lo, hi int) {
	t := (*Traversal)(p)
	dist, level := t.dist, t.level
	for i := lo; i < hi; i++ {
		for _, c := range t.row(t.expanding[i]) {
			if t.visited.SetAtomic(c) && dist != nil {
				dist[c] = level
			}
		}
	}
}

// setFront makes front the frontier's bitmap, building the pull state on
// the first pull level: front, found, and in's occupancy words (shared
// when WithOccupancy built them).
func (t *Traversal) setFront(frontier []uint32) {
	if t.front == nil {
		words := len(t.visited.Words())
		t.front, t.found = make([]uint64, words), make([]uint64, words)
		if t.occIn = t.in.occ; t.occIn == nil {
			t.occIn = occupancy(t.in.Offsets)
		}
	}
	clear(t.front)
	for _, v := range frontier {
		t.front[v>>6] |= 1 << (v & 63)
	}
}

// pull runs one bottom-up level over the whole vertex range, on the pool
// or, under the cutover, in one inline call. The runner leaves the level's
// discoveries in found and visited; found becomes front, the next
// frontier.
func (t *Traversal) pull() {
	if n := int(t.m.NumRows); t.inline {
		(*pullRunner)(t).RunChunk(0, 0, n)
	} else {
		t.pool.RunDynamic((*pullRunner)(t), n, 0)
	}
	t.front, t.found = t.found, t.front
}

// frontStats returns the size and out-edge count of the frontier front
// holds, in one scan of its words.
func (t *Traversal) frontStats() (size int, edges int64) {
	for w, word := range t.front {
		size += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			edges += t.degree(uint32(w*64 + bits.TrailingZeros64(word)))
		}
	}
	return size, edges
}

// listFront appends front's vertices to out in ascending order.
func (t *Traversal) listFront(out []uint32) []uint32 {
	for w, word := range t.front {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// pullRunner is Traversal's pull-phase par.Runner ([lo, hi) is a vertex
// range starting on a word edge: RunDynamic's grains are multiples of 64).
// It walks the range's bitmap words. A word's candidates are its
// unvisited vertices with at least one in-edge; each scans its in-edges
// until one is a frontier bit. The chunk then stores the word's
// discoveries into found and ORs them into visited with plain stores:
// during a pull no chunk reads another chunk's visited or found words
// (parents are tested against front, which nothing writes), so the phase
// has no atomics, no shared writes and no pass over dist afterwards.
type pullRunner Traversal

func (p *pullRunner) RunChunk(worker, lo, hi int) {
	t := (*Traversal)(p)
	off, cols := t.in.Offsets, t.in.Cols
	visited, occ, front, found := t.visited.Words(), t.occIn, t.front, t.found
	dist, level := t.dist, t.level
	for w := lo >> 6; w < (hi+63)>>6; w++ {
		var hit uint64
		for cand := occ[w] &^ visited[w]; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			v := w<<6 | b
			for _, c := range cols[off[v]:off[v+1]] {
				if front[c>>6]&(1<<(c&63)) != 0 {
					hit |= 1 << b
					if dist != nil {
						dist[v] = level
					}
					break
				}
			}
		}
		found[w] = hit
		visited[w] |= hit
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
