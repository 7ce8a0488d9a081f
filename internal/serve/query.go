package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/socialite"
)

// Query kinds served under /query/<kind>.
const (
	kindPageRank = "pagerank"
	kindBFS      = "bfs"
	kindCC       = "cc"
	kindTC       = "tc"
	kindDatalog  = "datalog"
)

// queryKinds lists every kind in listing order.
func queryKinds() []string {
	return []string{kindPageRank, kindBFS, kindCC, kindTC, kindDatalog}
}

// defaultDatalogRule is the reachability program the datalog endpoint
// evaluates when no rule is supplied: $MIN hop distances from the seeded
// source over the EDGE relation. $MIN over integers is deterministic
// under parallel evaluation, which keeps the cached bytes exact.
const defaultDatalogRule = "REACH(t, $MIN(d)) :- REACH(s, d0), d = d0 + 1, EDGE(s, t)."

// maxRuleBytes caps the datalog endpoint's rule parameter. Every distinct
// rule text is its own cache key, and the cached body echoes it: uncapped,
// padded spellings of one rule, each up to net/http's 1 MB request line,
// could pin gigabytes in a cache bounded only by its entry count.
const maxRuleBytes = 1 << 10

// query is one parsed, validated, canonicalized request.
type query struct {
	kind  string
	graph string
	// bypass: the request said Cache-Control: no-cache. It is answered by
	// the cold kernel alone, whatever is cached, in flight or carried.
	bypass bool

	// pagerank
	iters int
	jump  float64
	tol   float64
	topK  int

	// bfs / datalog
	source uint32

	// datalog
	rule string
}

// badRequestError marks parse/validation failures the handler maps to 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// parseQuery decodes /query/<kind>?graph=...&... into a canonical query.
// Defaults are applied here so the fingerprint of an implicit and an
// explicit spelling of the same query match.
func (s *Server) parseQuery(r *http.Request) (*query, error) {
	kind := r.URL.Path[len("/query/"):]
	q := &query{kind: kind, bypass: strings.Contains(r.Header.Get("Cache-Control"), "no-cache")}
	vals := r.URL.Query()
	q.graph = vals.Get("graph")
	if q.graph == "" {
		return nil, badRequest("missing graph parameter")
	}
	var err error
	switch kind {
	case kindPageRank:
		if q.iters, err = intParam(vals, "iters", 20); err != nil {
			return nil, err
		}
		if q.iters < 1 || q.iters > 1000 {
			return nil, badRequest("iters must be in [1,1000]")
		}
		if q.jump, err = floatParam(vals, "jump", 0.3); err != nil {
			return nil, err
		}
		// Each range check is written so NaN fails it: ParseFloat accepts
		// "NaN" and "Inf", and a NaN would reach the kernel and the cache.
		if !(q.jump > 0 && q.jump < 1) {
			return nil, badRequest("jump must be in (0,1)")
		}
		if q.tol, err = floatParam(vals, "tol", 0); err != nil {
			return nil, err
		}
		if !(q.tol >= 0 && q.tol <= math.MaxFloat64) {
			return nil, badRequest("tol must be finite and >= 0")
		}
		if q.tol == 0 {
			q.tol = 0 // -0 is 0: one query, one fingerprint
		}
		if q.topK, err = intParam(vals, "k", 10); err != nil {
			return nil, err
		}
		if q.topK < 0 || q.topK > 1000 {
			return nil, badRequest("k must be in [0,1000]")
		}
	case kindBFS, kindDatalog:
		src, err := intParam(vals, "source", 0)
		if err != nil {
			return nil, err
		}
		if src < 0 || int64(src) > math.MaxUint32 {
			return nil, badRequest("source must be in [0,%d]", uint32(math.MaxUint32))
		}
		q.source = graph.MustU32(int64(src))
		if kind == kindDatalog {
			q.rule = vals.Get("rule")
			if q.rule == "" {
				q.rule = defaultDatalogRule
			}
			if len(q.rule) > maxRuleBytes {
				return nil, badRequest("rule is %d bytes, over the %d-byte limit", len(q.rule), maxRuleBytes)
			}
		}
	case kindCC, kindTC:
		// no parameters beyond the graph
	default:
		return nil, badRequest("unknown query kind %q (have %v)", kind, queryKinds())
	}
	return q, nil
}

// fingerprint renders the canonical query string: the cache key component
// and the Query field echoed in every response. Requested as written, it
// names the same query: %g writes a large tol as 1e+10, and a bare '+'
// in a query string reads back as a space, so it is escaped.
func (q *query) fingerprint() string {
	switch q.kind {
	case kindPageRank:
		fp := fmt.Sprintf("pagerank?iters=%d&jump=%g&tol=%g&k=%d", q.iters, q.jump, q.tol, q.topK)
		return strings.ReplaceAll(fp, "+", "%2B")
	case kindBFS:
		return fmt.Sprintf("bfs?source=%d", q.source)
	case kindCC:
		return "cc"
	case kindTC:
		return "tc"
	case kindDatalog:
		return fmt.Sprintf("datalog?source=%d&rule=%s", q.source, url.QueryEscape(q.rule))
	}
	return q.kind
}

func intParam(vals url.Values, name string, def int) (int, error) {
	s := vals.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	return v, nil
}

func floatParam(vals url.Values, name string, def float64) (float64, error) {
	s := vals.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	return v, nil
}

// vertexValue is one (vertex, value) pair in a top-k listing.
type vertexValue struct {
	Vertex uint32  `json:"v"`
	Value  float64 `json:"value"`
}

// queryMeta is the header every response carries.
type queryMeta struct {
	Graph string `json:"graph"`
	Epoch uint64 `json:"epoch"`
	Query string `json:"query"`
}

// pageRankResponse is the /query/pagerank body.
type pageRankResponse struct {
	queryMeta
	Iterations int           `json:"iterations"`
	Checksum   string        `json:"checksum"`
	Top        []vertexValue `json:"top,omitempty"`
}

// bfsResponse is the /query/bfs body.
type bfsResponse struct {
	queryMeta
	Source   uint32 `json:"source"`
	Reached  int64  `json:"reached"`
	MaxDepth int32  `json:"max_depth"`
	Checksum string `json:"checksum"`
}

// ccResponse is the /query/cc body.
type ccResponse struct {
	queryMeta
	Components  int64  `json:"components"`
	LargestSize int64  `json:"largest_size"`
	Checksum    string `json:"checksum"`
}

// tcResponse is the /query/tc body.
type tcResponse struct {
	queryMeta
	Triangles int64 `json:"triangles"`
}

// datalogResponse is the /query/datalog body.
type datalogResponse struct {
	queryMeta
	Rounds   int    `json:"rounds"`
	Facts    int    `json:"facts"`
	Checksum string `json:"checksum"`
}

// rankVectors is the scratch one PageRank miss borrows: the two rank
// buffers the sweeps swap and the contribution vector between them.
type rankVectors struct{ pr, next, contrib []float64 }

// labelVectors is the scratch one connected-components miss borrows: the
// label buffer, the flood's work stack and the per-label counts of the
// reduction.
type labelVectors struct {
	labels, work []uint32
	counts       []int32
}

// distVectors is the scratch one bypass BFS miss borrows: the distance
// buffer the traversal writes.
type distVectors struct{ dist []int32 }

// borrow takes a *T from p, or a zero one when the pool is empty (at
// start, and after the collector reclaimed an idle server's scratch).
func borrow[T any](p *sync.Pool) *T {
	if v, ok := p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// sized returns s with length n, reallocated only when n outgrew it (the
// first borrow, or a delta that added vertices). Contents are stale.
func sized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// execute runs the query's kernel against the pinned epoch and returns
// the fully serialized response body. Every kernel here is bit-identical
// across worker counts (the backend conformance pins), so the bytes are a
// pure function of (graph epoch, fingerprint) — exactly the cache key.
// BFS and connected components have a second way to the same array: their
// results are canonical (hop distances, min-id labels), so repairing the
// vector the graph carries from an earlier epoch (carried.go) yields what
// a cold run would, element for element. PageRank and Datalog always run
// cold: a warm-started fixed-iters PageRank is a different float sequence.
func (s *Server) execute(g *servedGraph, snap *graph.Snapshot, q *query) ([]byte, error) {
	meta := queryMeta{Graph: g.name, Epoch: uint64(snap.Epoch()), Query: q.fingerprint()}
	var resp any
	switch q.kind {
	case kindPageRank:
		st := g.bind(snap)
		vec := borrow[rankVectors](&s.rankScratch)
		n := int(st.in.NumRows)
		vec.pr, vec.next, vec.contrib = sized(vec.pr, n), sized(vec.next, n), sized(vec.contrib, n)
		ranks, iters := native.PageRankInto(s.pool, st.in, st.outDeg, q.jump, q.tol, q.iters, nil, vec.pr, vec.next, vec.contrib)
		resp = &pageRankResponse{
			queryMeta:  meta,
			Iterations: iters,
			Checksum:   checksumHex(hashFloat64s(ranks)),
			Top:        topRanks(ranks, q.topK),
		}
		s.rankScratch.Put(vec)
	case kindBFS:
		if int64(q.source) >= int64(snap.NumVertices()) {
			return nil, badRequest("source %d outside vertex space [0,%d)", q.source, snap.NumVertices())
		}
		// A carried distance vector is repaired with the edges added since
		// its epoch; without one, and on a bypass, the traversal runs cold.
		m := backend.FromSnapshot(snap)
		var dist []int32
		if !q.bypass {
			if c, added := g.takeCarried(meta.Query, snap.Epoch()); c != nil {
				dist = native.RepairBFS(m, c.dist, added)
				s.refreshedBFS.Add(1)
			}
		}
		var vec *distVectors
		if dist == nil {
			// A bypass answers from the borrowed distance buffer; any other
			// result stays with the graph, so it gets its own. Bottom-up
			// levels read parents through the epoch's in-CSR.
			n := int(snap.NumVertices())
			if q.bypass {
				vec = borrow[distVectors](&s.distScratch)
				vec.dist = sized(vec.dist, n)
				dist = vec.dist
			} else {
				dist = make([]int32, n)
			}
			dist, _ = native.BFSInto(s.pool, m, g.bind(snap).in, q.source, "serve.bfs.level", nil, dist)
		}
		reached, maxDepth, sum := bfsStats(dist)
		resp = &bfsResponse{
			queryMeta: meta,
			Source:    q.source,
			Reached:   reached,
			MaxDepth:  maxDepth,
			Checksum:  checksumHex(sum),
		}
		if vec != nil {
			s.distScratch.Put(vec)
		}
		if !q.bypass {
			g.putCarried(meta.Query, &carried{epoch: snap.Epoch(), dist: dist}, snap.CSR().MemoryBytes())
		}
	case kindCC:
		// A label belongs to everything that reaches its vertex: the cold
		// flood and the repair both run against the edges, through the
		// epoch's in-CSR.
		vec := borrow[labelVectors](&s.labelScratch)
		n := int(snap.NumVertices())
		vec.counts = sized(vec.counts, n)
		var labels []uint32
		if !q.bypass {
			if c, added := g.takeCarried(meta.Query, snap.Epoch()); c != nil {
				labels = native.RepairCC(g.bind(snap).in, c.labels, added)
				s.refreshedCC.Add(1)
			}
		}
		if labels == nil {
			// A bypass answers from the borrowed label buffer; any other
			// result stays with the graph, so it gets its own.
			vec.work = sized(vec.work, n)
			if q.bypass {
				vec.labels = sized(vec.labels, n)
				labels = vec.labels
			} else {
				labels = make([]uint32, n)
			}
			labels = native.ConnectedComponentsInto(g.bind(snap).in, labels, vec.work)
		}
		comps, largest, sum := componentStats(labels, vec.counts)
		resp = &ccResponse{
			queryMeta:   meta,
			Components:  comps,
			LargestSize: largest,
			Checksum:    checksumHex(sum),
		}
		s.labelScratch.Put(vec)
		if !q.bypass {
			g.putCarried(meta.Query, &carried{epoch: snap.Epoch(), labels: labels}, snap.CSR().MemoryBytes())
		}
	case kindTC:
		if !g.v.Options().Symmetrize {
			return nil, badRequest("triangle counting needs a symmetrized graph; %q is directed", g.name)
		}
		resp = &tcResponse{queryMeta: meta, Triangles: native.TriangleCountSymmetrized(s.pool, snap.CSR())}
	case kindDatalog:
		if int64(q.source) >= int64(snap.NumVertices()) {
			return nil, badRequest("source %d outside vertex space [0,%d)", q.source, snap.NumVertices())
		}
		dl, err := datalogQuery(s.pool, snap, g.bind(snap).in, q)
		if err != nil {
			return nil, err
		}
		dl.queryMeta = meta
		resp = dl
	default:
		return nil, badRequest("unknown query kind %q", q.kind)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// datalogQuery evaluates a SociaLite-style rule over the pinned epoch's
// EDGE relation with REACH seeded at the query source. Recursive rules
// (head table driving the body) run semi-naively to fixpoint, others
// evaluate once; both on the server's pool. EDGE carries in, the epoch's
// in-CSR, so the default rule's rounds are BFS levels that pull exactly as
// /query/bfs does.
func datalogQuery(pool *backend.Pool, snap *graph.Snapshot, in *backend.Matrix, q *query) (*datalogResponse, error) {
	reg := socialite.NewRegistry()
	reg.Register(socialite.NewEdgeTable("EDGE", snap.CSR()).WithInEdges(in))
	tbl := socialite.NewVecTable("REACH", snap.NumVertices())
	reg.Register(tbl)
	tbl.Put(q.source, socialite.Scalar(0))
	rule, err := socialite.Parse(q.rule, reg)
	if err != nil {
		return nil, badRequest("bad rule: %v", err)
	}
	rounds := 1
	if rule.Recursive() {
		rounds, err = socialite.Fixpoint(pool, rule)
	} else {
		err = socialite.EvalOnce(pool, rule)
	}
	if err != nil {
		return nil, badRequest("evaluating rule: %v", err)
	}
	sum := uint64(fnvOffset64)
	tbl.ForEach(func(k uint32, v socialite.Value) {
		sum = fnv1a(fnv1a(sum, uint64(k), 4), math.Float64bits(v.S()), 8)
	})
	return &datalogResponse{
		Rounds:   rounds,
		Facts:    tbl.Len(),
		Checksum: checksumHex(sum),
	}, nil
}

// worseRank orders top-k candidates: a ranks below b when its value is
// lower, or equal with the larger vertex id.
func worseRank(a, b vertexValue) bool {
	return a.Value < b.Value || (a.Value == b.Value && a.Vertex > b.Vertex)
}

// siftDown restores the worst-at-root heap order of h below index i.
func siftDown(h []vertexValue, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && worseRank(h[c+1], h[c]) {
			c++
		}
		if !worseRank(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// topRanks returns the k highest-ranked vertices, ties broken by vertex
// id so the listing is deterministic. One ascending-id pass keeps the k
// best so far in a heap with the worst of them at the root: a later vertex
// displaces the root only with a strictly higher rank, because on a tie
// its larger id loses. Popping the heap then fills the listing back to
// front. Ranks must be NaN-free.
func topRanks(ranks []float64, k int) []vertexValue {
	if k <= 0 {
		return nil
	}
	if k > len(ranks) {
		k = len(ranks)
	}
	top := make([]vertexValue, k)
	for v := range top {
		top[v] = vertexValue{Vertex: uint32(v), Value: ranks[v]}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for v := k; v < len(ranks); v++ {
		if r := ranks[v]; r > top[0].Value {
			top[0] = vertexValue{Vertex: uint32(v), Value: r}
			siftDown(top, 0)
		}
	}
	for end := k - 1; end > 0; end-- {
		top[0], top[end] = top[end], top[0]
		siftDown(top[:end], 0)
	}
	return top
}

// FNV-1a (64-bit) parameters; every checksum in a response body is this
// hash over the result array's little-endian words.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the low n bytes of x, least significant first, into h.
func fnv1a(h, x uint64, n int) uint64 {
	for ; n > 0; n-- {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// checksumHex renders a checksum the way every response carries it.
func checksumHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// hashFloat64s hashes a float64 array bit-exactly (the IEEE-754 words).
func hashFloat64s(xs []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range xs {
		h = fnv1a(h, math.Float64bits(x), 8)
	}
	return h
}

// bfsStats reduces a distance array (-1 = unreached) in one pass: the
// reached count, the deepest level, and the bit-exact checksum.
func bfsStats(dist []int32) (reached int64, maxDepth int32, sum uint64) {
	sum = fnvOffset64
	for _, d := range dist {
		if d >= 0 {
			reached++
			if d > maxDepth {
				maxDepth = d
			}
		}
		sum = fnv1a(sum, uint64(uint32(d)), 4)
	}
	return reached, maxDepth, sum
}

// componentStats reduces canonical min-id labels (every label is a vertex
// id below len(labels)): the number of distinct labels, the largest
// component's size, and the labels' bit-exact checksum. counts is scratch
// of len(labels), overwritten.
func componentStats(labels []uint32, counts []int32) (components, largest int64, sum uint64) {
	clear(counts)
	sum = fnvOffset64
	for _, l := range labels {
		counts[l]++
		sum = fnv1a(sum, uint64(l), 4)
	}
	for _, c := range counts {
		if c > 0 {
			components++
			if int64(c) > largest {
				largest = int64(c)
			}
		}
	}
	return components, largest, sum
}
