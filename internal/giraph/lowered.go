package giraph

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Lowering is a backend-lowered execution of a vertex program: the
// superstep schedule of message generation, delivery, and fold collapses
// into semiring SpMV / sparse-frontier expansion over the shared CSR
// (DESIGN.md §12). A lowering must be observationally equivalent to the
// stock runtime — same final Values, same per-superstep active/message
// counts, same modeled buffer footprint — so the engine's results and
// traces do not depend on which path ran. The engine method reads the final
// values off the lowering's own typed vector, unboxed.
type Lowering interface {
	// Step executes superstep s and reports the active-vertex and
	// message counts the stock runtime would have observed.
	Step(s int) (active, msgs int64)
	// BufferedBytes reports the modeled message-buffer footprint of the
	// step just executed.
	BufferedBytes() int64
	// AllHalted reports whether every vertex has voted to halt.
	AllHalted() bool
}

// prLowering runs Algorithm 1's superstep schedule as the shared backend
// sweep, (s, a, b) = (1, r, 1−r): superstep s ≥ 1 folds the rank/degree
// messages superstep s−1 sent, and since no vertex changes its rank in
// between, it computes them from the ranks it holds — one whole sweep,
// contribution vector and plus-times SpMV over the transpose. Superstep 0
// only does the sending's accounting. Because the stock runtime delivers
// messages in ascending sender order (workers own ascending vertex ranges
// and flush in worker order) and the transpose stores in-neighbours
// sorted, the float summation order is identical and the lowered ranks
// are bit-for-bit the stock ranks.
type prLowering struct {
	sweep    *backend.PageRankSweep
	ranks    []float64
	edges    int64
	maxS     int
	buffered int64
	halted   bool
}

// newPRLowering binds the lowering to the call's pool. in is g's transpose
// and outDeg g's out-degrees, both built by the caller before the timed
// region.
func newPRLowering(pool *par.Pool, in *graph.CSR, outDeg []int64, r float64, maxSupersteps int, tr *trace.Tracer) *prLowering {
	n := int(in.NumVertices)
	at := backend.FromCSR(in)
	l := &prLowering{
		sweep: backend.NewPageRankSweep(pool, at, outDeg, 1, r, 1-r, make([]float64, n)).WithTracer(tr),
		ranks: make([]float64, n),
		edges: at.NNZ(),
		maxS:  maxSupersteps,
	}
	for i := range l.ranks {
		l.ranks[i] = 1
	}
	return l
}

func (l *prLowering) Step(s int) (active, msgs int64) {
	if s > 0 {
		// Fold the previous superstep's messages: value ← r + (1−r)·Σ.
		l.sweep.Run(l.ranks, l.ranks)
	}
	n := int64(len(l.ranks))
	if s < l.maxS-1 {
		// Every vertex with out-edges re-broadcasts rank/degree: one
		// message per edge, all buffered before delivery (the stock
		// runtime's single-chunk superstep).
		l.buffered = l.edges * (javaObjectOverhead + 8)
		return n, l.edges
	}
	l.buffered = 0
	l.halted = true
	return n, 0
}

func (l *prLowering) BufferedBytes() int64 { return l.buffered }
func (l *prLowering) AllHalted() bool      { return l.halted }

// bfsLowering runs Algorithm 2 as the backend's level step: the min
// combine over delivered distance messages is exactly the step's claim — a
// vertex improves iff it was never reached before, and the new distance is
// the superstep number. The step has no in-edge matrix, so every superstep
// is a push, as the model's messages are. Active counts (message
// receivers) come from a touched bitset over the previous frontier's
// targets.
type bfsLowering struct {
	step     *backend.Traversal
	g        *graph.CSR
	source   uint32
	dist     []int32
	frontier []uint32
	spare    []uint32
	touched  *bitvec.Vector
	buffered int64
}

// bfsInfinity mirrors the vertex program's unreached sentinel.
const bfsInfinity = int32(1) << 30

func newBFSLowering(pool *par.Pool, g *graph.CSR, source uint32) *bfsLowering {
	n := g.NumVertices
	l := &bfsLowering{
		step:    backend.NewDirectedTraversal(pool, backend.FromCSR(g), nil, "", nil),
		g:       g,
		source:  source,
		dist:    make([]int32, n),
		touched: bitvec.New(n),
	}
	for i := range l.dist {
		l.dist[i] = bfsInfinity
	}
	l.dist[source] = 0
	l.step.Claim(source)
	return l
}

func (l *bfsLowering) Step(s int) (active, msgs int64) {
	if s == 0 {
		// Superstep 0: every vertex computes (none halted yet); only the
		// source sends, one message per out-edge.
		l.frontier = append(l.frontier[:0], l.source)
		msgs = int64(len(l.g.Neighbors(l.source)))
		l.buffered = msgs * (javaObjectOverhead + 4)
		return int64(l.g.NumVertices), msgs
	}
	// Receivers of the previous superstep's messages are the distinct
	// targets of the old frontier — active whether or not they improve.
	l.touched.Reset()
	for _, v := range l.frontier {
		for _, t := range l.g.Neighbors(v) {
			l.touched.Set(t)
		}
	}
	active = int64(l.touched.Count())
	// The improved set is the newly claimed targets; each sends dist+1
	// along every out-edge before halting.
	next := l.step.Step(l.frontier, l.spare[:0])
	for _, v := range next {
		l.dist[v] = graph.MustI32(int64(s))
		msgs += int64(len(l.g.Neighbors(v)))
	}
	l.spare = l.frontier
	l.frontier = next
	l.buffered = msgs * (javaObjectOverhead + 4)
	return active, msgs
}

func (l *bfsLowering) BufferedBytes() int64 { return l.buffered }

// AllHalted: every BFS vertex votes to halt on every superstep it runs,
// so from superstep 1 on (the first time the runtime consults this) the
// whole graph is parked.
func (l *bfsLowering) AllHalted() bool { return true }
