package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"graphmaze/internal/graph"
)

// tenantOf extracts the requesting tenant: the X-Tenant header, the
// tenant query parameter, or "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := param(r.URL.RawQuery, "tenant"); t != "" {
		return t
	}
	return "default"
}

// writeJSON sends a JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	body, err := json.Marshal(v)
	if err != nil {
		return
	}
	body = append(body, '\n')
	_, _ = w.Write(body)
}

// writeError sends a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleQuery is the full request pipeline: parse and canonicalize, pin
// the graph's current epoch, probe the result cache, and on a miss either
// wait for the computation of the same key already in flight and take the
// hit path, or lead the key: admit under the tenant's fair share, compute
// on the shared pool, fill the cache, respond. Only a request that
// computes — a leader or a bypass — takes an admission slot, so a hit is
// never queued or shed behind misses and a parked request holds no slot.
// The request context is honored at every wait point: a client that
// disconnects while parked or queued leaves, and a cancelled request is
// never charged as computed.
//
// X-Cache says which of the three a response was: "hit" is bytes out of
// the cache, including a request that parked behind the computation that
// produced them; "miss" is the one request per (graph, epoch,
// fingerprint) that computed and filled the cache; "bypass" is a
// Cache-Control: no-cache request, which always runs the cold kernel and
// neither reads nor fills the cache, waits for anyone, nor touches the
// carried vectors.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "query endpoints are GET")
		return
	}
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g, ok := s.graphByName(q.graph)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q (have %v)", q.graph, s.graphNames())
		return
	}
	q.graph = g.name // the registered string, not the request's bytes

	// Epoch pin: one atomic load. Everything below sees this snapshot even
	// if deltas advance the graph while the request waits or computes.
	start := time.Now()
	snap := g.v.Current()
	key := cacheKey{epoch: snap.Epoch(), q: q}
	xcache := xcacheBypass
	if !q.bypass {
		// Coalesce: park while another request computes this key.
		for {
			body, hit, wait := s.cache.acquire(key)
			if hit {
				s.recordQuery(q.kind, time.Since(start))
				writeBody(w, xcacheHit, body)
				return
			}
			if wait == nil {
				break
			}
			s.coalesced.Add(1)
			select {
			case <-wait:
			case <-ctx.Done():
				writeError(w, http.StatusServiceUnavailable, "cancelled while waiting: %v", ctx.Err())
				return
			}
		}
		// This request leads the key: whatever happens below — a shed, a
		// 400, a panic — the requests parked behind it are released, and
		// the first of them to find no entry leads next.
		defer s.cache.release(key)
		xcache = xcacheMiss
	}

	// Admission: the one wait a computing request has besides the key's.
	// The context carries the client disconnect, so an abandoned request
	// leaves the queue.
	if err := s.adm.Acquire(ctx, tenantOf(r)); err != nil {
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "overloaded, retry later")
			return
		}
		// Client gave up while queued.
		writeError(w, http.StatusServiceUnavailable, "cancelled while queued: %v", err)
		return
	}
	defer s.adm.Release()
	if ctx.Err() != nil {
		return
	}

	s.computed.Add(1)
	if s.beforeExecute != nil {
		s.beforeExecute(q)
	}
	body, err := s.execute(g, snap, &q)
	if err != nil {
		var bad *badRequestError
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !q.bypass {
		s.cache.put(key, body)
	}
	s.recordQuery(q.kind, time.Since(start))
	writeBody(w, xcache, body)
}

// The header values a query response carries, shared by every response
// and assigned, not Set: Set builds a new one-element slice per call.
// Each has capacity 1, so a later Add on a response's header copies
// instead of writing into the shared array.
var (
	xcacheHit       = []string{"hit"}
	xcacheMiss      = []string{"miss"}
	xcacheBypass    = []string{"bypass"}
	jsonContentType = []string{"application/json; charset=utf-8"}
)

// writeBody sends a query's serialized response, saying in X-Cache how it
// was produced.
func writeBody(w http.ResponseWriter, xcache []string, body []byte) {
	h := w.Header()
	h["X-Cache"] = xcache
	h["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
}

// recordQuery records one served query's latency, overall and per kind.
func (s *Server) recordQuery(kind string, d time.Duration) {
	lane := s.nextLane()
	s.queryHist.Record(lane, d.Nanoseconds())
	s.kindHist[kind].Record(lane, d.Nanoseconds())
}

// maxDeltaBytes bounds a /delta body (about half a million edges); a
// larger batch is refused with 413 before any of it is applied.
const maxDeltaBytes = 8 << 20

// deltaRequest is the /delta ingestion body.
type deltaRequest struct {
	Graph string      `json:"graph"`
	Edges [][2]uint32 `json:"edges"`
}

// deltaResponse reports the published epoch and ingestion stats.
type deltaResponse struct {
	Graph       string `json:"graph"`
	Epoch       uint64 `json:"epoch"`
	Added       int64  `json:"added"`
	Duplicates  int64  `json:"duplicates"`
	SelfLoops   int64  `json:"self_loops"`
	NewVertices uint32 `json:"new_vertices"`
}

// handleDelta ingests a batch of edge insertions: POST {"graph": ...,
// "edges": [[src,dst],...]}. Ingestion holds only the graph's ingest lock
// — queries pinned to older epochs keep running unblocked — and under it
// the epoch advances, the cleaned edges join the pending list the carried
// vectors are repaired from, and the delta's record is saved into the
// graph's epoch store, all before the response confirms the epoch. The
// epoch store is an in-memory ledger whose sizes and modeled write costs
// /graphs reports; nothing reaches disk and the server never reads it
// back, so a confirmed epoch survives only as long as the process.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "/delta is POST")
		return
	}
	var req deltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDeltaBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "delta body exceeds %d bytes", maxDeltaBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "bad delta body: %v", err)
		return
	}
	g, ok := s.graphByName(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q (have %v)", req.Graph, s.graphNames())
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "empty delta")
		return
	}
	if ctx.Err() != nil {
		return
	}
	delta := make([]graph.Edge, len(req.Edges))
	for i, e := range req.Edges {
		delta[i] = graph.Edge{Src: e[0], Dst: e[1]}
	}
	snap, stats, err, persistErr := g.ingestDelta(delta)
	if err != nil {
		writeError(w, http.StatusBadRequest, "applying delta: %v", err)
		return
	}
	if persistErr != nil {
		writeError(w, http.StatusInternalServerError, "persisting epoch %d: %v", snap.Epoch(), persistErr)
		return
	}
	s.deltas.Add(1)
	writeJSON(w, http.StatusOK, deltaResponse{
		Graph:       g.name,
		Epoch:       uint64(snap.Epoch()),
		Added:       stats.Added,
		Duplicates:  stats.Duplicates,
		SelfLoops:   stats.SelfLoops,
		NewVertices: stats.NewVertices,
	})
}

// ingestDelta applies delta to g under its ingest lock, released on every
// path out (a panic included), and saves the new epoch's record into the
// in-memory epoch store. err is the delta's own fault; persistErr the
// epoch store's.
func (g *servedGraph) ingestDelta(delta []graph.Edge) (snap *graph.Snapshot, stats graph.DeltaStats, err, persistErr error) {
	g.ingest.Lock()
	defer g.ingest.Unlock()
	snap, added, stats, err := g.v.ApplyDelta(delta)
	if err != nil {
		return nil, stats, err, nil
	}
	// The gauge moves with the epoch, under the lock that orders epochs:
	// set after it, two deltas could publish theirs in the wrong order,
	// and a failed save would skip a live epoch.
	g.epochGauge.Set(float64(snap.Epoch()))
	g.notePending(snap.Epoch(), added, snap.NumVertices())
	_, _, persistErr = g.store.SaveDelta(snap, added, 1)
	return snap, stats, nil, persistErr
}

// graphInfo is one entry in the /graphs listing.
type graphInfo struct {
	Name            string `json:"name"`
	Epoch           uint64 `json:"epoch"`
	Vertices        uint32 `json:"vertices"`
	Edges           int64  `json:"edges"`
	Symmetrized     bool   `json:"symmetrized"`
	PersistedBytes  int64  `json:"persisted_bytes"`
	PersistedEpochs int    `json:"persisted_epochs"`
}

// handleGraphs lists the registered graphs with their live epoch and
// epoch-store accounting: persisted_bytes is what the in-memory store
// retains now (one snapshot chain, not bytes on disk) and persisted_epochs
// how many epochs it has written.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	infos := make([]graphInfo, 0)
	for _, name := range s.graphNames() {
		g, ok := s.graphByName(name)
		if !ok {
			continue
		}
		snap := g.v.Current()
		bytes, writes := g.store.Stats()
		infos = append(infos, graphInfo{
			Name:            name,
			Epoch:           uint64(snap.Epoch()),
			Vertices:        snap.NumVertices(),
			Edges:           snap.CSR().NumEdges(),
			Symmetrized:     g.v.Options().Symmetrize,
			PersistedBytes:  bytes,
			PersistedEpochs: writes,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ok\n")
}

// handleIndex is the plain-text endpoint directory at "/".
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if r.Context().Err() != nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "graphserve\n")
	for _, k := range queryKinds() {
		fmt.Fprintf(w, "/query/%s?graph=<name>\n", k)
	}
	fmt.Fprint(w, "/delta (POST)\n/graphs\n/healthz\n/metrics\n/metrics.json\n/debug/pprof/\n")
}
