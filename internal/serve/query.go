package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"

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

// query is one parsed, validated, canonicalized request.
type query struct {
	kind  string
	graph string

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
	q := &query{kind: kind}
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
		if q.jump <= 0 || q.jump >= 1 {
			return nil, badRequest("jump must be in (0,1)")
		}
		if q.tol, err = floatParam(vals, "tol", 0); err != nil {
			return nil, err
		}
		if q.tol < 0 {
			return nil, badRequest("tol must be >= 0")
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
		}
	case kindCC, kindTC:
		// no parameters beyond the graph
	default:
		return nil, badRequest("unknown query kind %q (have %v)", kind, queryKinds())
	}
	return q, nil
}

// fingerprint renders the canonical query string: the cache key component
// and the Query field echoed in every response.
func (q *query) fingerprint() string {
	switch q.kind {
	case kindPageRank:
		return fmt.Sprintf("pagerank?iters=%d&jump=%g&tol=%g&k=%d", q.iters, q.jump, q.tol, q.topK)
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

// execute runs the query's kernel against the pinned epoch and returns
// the fully serialized response body. Every kernel here is bit-identical
// across worker counts (the backend conformance pins), so the bytes are a
// pure function of (graph epoch, fingerprint) — exactly the cache key.
func (s *Server) execute(g *servedGraph, snap *graph.Snapshot, q *query) ([]byte, error) {
	meta := queryMeta{Graph: g.name, Epoch: uint64(snap.Epoch()), Query: q.fingerprint()}
	var resp any
	switch q.kind {
	case kindPageRank:
		st := g.bind(snap)
		ranks, iters := native.PageRank(s.pool, st.in, st.outDeg, q.jump, q.tol, q.iters, nil)
		resp = &pageRankResponse{
			queryMeta:  meta,
			Iterations: iters,
			Checksum:   checksumFloat64s(ranks),
			Top:        topRanks(ranks, q.topK),
		}
	case kindBFS:
		if int64(q.source) >= int64(snap.NumVertices()) {
			return nil, badRequest("source %d outside vertex space [0,%d)", q.source, snap.NumVertices())
		}
		dist, _ := native.BFS(s.pool, backend.FromSnapshot(snap), q.source, "serve.bfs.level", nil)
		var reached int64
		maxDepth := int32(0)
		for _, d := range dist {
			if d >= 0 {
				reached++
				if d > maxDepth {
					maxDepth = d
				}
			}
		}
		resp = &bfsResponse{
			queryMeta: meta,
			Source:    q.source,
			Reached:   reached,
			MaxDepth:  maxDepth,
			Checksum:  checksumInt32s(dist),
		}
	case kindCC:
		labels := native.ConnectedComponents(s.pool, backend.FromSnapshot(snap))
		comps, largest := componentStats(labels)
		resp = &ccResponse{
			queryMeta:   meta,
			Components:  comps,
			LargestSize: largest,
			Checksum:    checksumUint32s(labels),
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
		dl, err := datalogQuery(s.pool, snap, q)
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

// componentStats counts distinct labels and the largest component size.
func componentStats(labels []uint32) (components, largest int64) {
	sizes := make(map[uint32]int64)
	for _, l := range labels {
		sizes[l]++
	}
	for _, sz := range sizes {
		if sz > largest {
			largest = sz
		}
	}
	return int64(len(sizes)), largest
}

// datalogQuery evaluates a SociaLite-style rule over the pinned epoch's
// EDGE relation with REACH seeded at the query source. Recursive rules
// (head table driving the body) run semi-naively to fixpoint on the
// server's pool; others evaluate once.
func datalogQuery(pool *backend.Pool, snap *graph.Snapshot, q *query) (*datalogResponse, error) {
	reg := socialite.NewRegistry()
	reg.Register(socialite.NewEdgeTable("EDGE", snap.CSR()))
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
		err = socialite.EvalOnce(rule)
	}
	if err != nil {
		return nil, badRequest("evaluating rule: %v", err)
	}
	h := fnv.New64a()
	var buf [12]byte
	tbl.ForEach(func(k uint32, v socialite.Value) {
		binary.LittleEndian.PutUint32(buf[0:4], k)
		binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(v.S()))
		_, _ = h.Write(buf[:])
	})
	return &datalogResponse{
		Rounds:   rounds,
		Facts:    tbl.Len(),
		Checksum: fmt.Sprintf("%016x", h.Sum64()),
	}, nil
}

// topRanks returns the k highest-ranked vertices, ties broken by vertex
// id so the listing is deterministic.
func topRanks(ranks []float64, k int) []vertexValue {
	if k <= 0 {
		return nil
	}
	idx := make([]uint32, len(ranks))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		return a < b
	})
	if k > len(idx) {
		k = len(idx)
	}
	top := make([]vertexValue, k)
	for i := 0; i < k; i++ {
		top[i] = vertexValue{Vertex: idx[i], Value: ranks[idx[i]]}
	}
	return top
}

// checksumFloat64s hashes a float64 array bit-exactly (FNV-1a over the
// little-endian IEEE-754 words).
func checksumFloat64s(xs []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checksumInt32s hashes an int32 array bit-exactly.
func checksumInt32s(xs []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checksumUint32s hashes a uint32 array bit-exactly.
func checksumUint32s(xs []uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], x)
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
