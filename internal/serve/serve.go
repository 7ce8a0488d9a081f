// Package serve is the always-on graph query service: a long-lived HTTP
// server that loads graphs once into epoch-versioned snapshots and
// answers many concurrent PageRank / BFS / connected-components /
// triangle-count / Datalog queries against them, while delta batches
// keep ingesting.
//
// The request pipeline (DESIGN.md §15) is
//
//	epoch pin → result cache → coalesce → admission → fair queue → backend pool → reduction
//
// A query pins the graph's current epoch with a single atomic load —
// ingestion via ApplyDelta never blocks readers, and a query keeps
// computing on its pinned snapshot however many epochs advance
// meanwhile. Results are cached keyed on (graph, epoch, canonical query),
// in a cache bounded in bytes: the epoch in the key means a delta
// invalidates naturally by changing the key, never by flushing, and
// because every kernel is pinned bit-identical across worker counts, a
// cache hit serves the exact bytes a recompute would produce. A miss on a
// key another request is already computing waits for that computation and
// is then served as a hit. Only a request that computes — the key's
// leader, or a no-cache bypass — reaches admission, a bounded queue plus
// a max-in-flight cap: when both are full the request is shed with 429
// immediately, so overload degrades into fast rejections instead of
// collapse, and a hit is never among them. Queued requests are released
// by per-tenant fair scheduling (start-time fair queuing, one equal share
// per tenant), so one heavy tenant cannot starve the rest. Misses execute
// on one shared persistent par.Pool (each kernel phase on the whole
// team when it is free, on the request's own goroutine when another
// query holds it), in O(n) vectors borrowed from the server, and reduce the kernel's array to the response's few numbers in
// single passes; after a delta, a BFS or connected-components miss repairs
// the vector the graph carried over from the previous epoch instead of
// recomputing it (carried.go).
package serve

import (
	"fmt"
	"log"
	"net/http"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/ckpt"
	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

// Config sizes the service.
type Config struct {
	// Workers is the shared backend pool size; 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight caps concurrently executing queries (default 2×workers).
	MaxInFlight int
	// QueueDepth bounds the admission queue across all tenants; a request
	// arriving with the queue full is shed with 429 (default 64).
	QueueDepth int
	// CacheBytes bounds the result cache: every entry is charged its body,
	// its key's strings and a fixed overhead (default DefaultCacheBytes).
	CacheBytes int64
	// Registry receives the service metrics (latency histograms, queue
	// gauges, shed/cache counters); nil creates a private one.
	Registry *obs.Registry
}

// DefaultCacheBytes is the result cache's default budget, 16 MiB. The
// largest body the parser admits, a k=1000 PageRank listing, is about
// 50 kB, so it is below the 25 MB that 512 such entries could pin when the
// cache was bounded by entry count; the served bodies are a few hundred
// bytes, so it holds tens of thousands of those.
const DefaultCacheBytes = 16 << 20

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// servedGraph is one registered versioned graph plus its per-epoch bound
// state, the result vectors it carries from epoch to epoch (carried.go)
// and its epoch store: an in-memory chain of the newest snapshot and the
// delta records after it, whose size /graphs reports and nothing reads
// back.
type servedGraph struct {
	name  string
	v     *graph.Versioned
	store *ckpt.EpochStore

	// ingest serializes /delta on this graph: the epoch advance, the
	// pending entry and the epoch store's record are one step, in epoch
	// order.
	// Queries never take it.
	ingest sync.Mutex

	// mu guards the fields below and is held for pointer moves only, never
	// across a kernel, a transpose or a repair.
	mu sync.Mutex
	// bound is the derived state (PageRank's in-CSR and out-degrees) of
	// the newest epoch any query has bound. The slot only moves forward, so
	// a straggler still pinned to an older epoch never evicts the state
	// every current query shares.
	bound *epochState
	// carriedVecs holds the carried result vectors by query fingerprint;
	// pending[i] is the cleaned delta that produced epoch pendingBase+i.
	carriedVecs map[string]*carried
	pending     [][]graph.Edge
	pendingBase graph.Epoch
	stamp       uint64
	// ranks is the one PageRank vector the graph carries.
	ranks rankSlot

	carriedGauge, pendingGauge, epochGauge *obs.Gauge
}

// epochState is the derived per-epoch state PageRank-shaped queries need,
// built at most once by whichever query asks first. It is immutable after
// that: a query that grabbed it keeps a consistent view even after the
// graph advances and the slot moves on.
type epochState struct {
	epoch graph.Epoch
	snap  *graph.Snapshot

	build  sync.Once
	in     *backend.Matrix
	outDeg []int64
}

// bind returns the derived state for snap. The lock covers only the slot:
// the build runs outside it, once per state, so queries of the same
// epoch wait for one build and queries of any other epoch wait for none.
// A snapshot older than the slot's gets private state that is never
// published; at most the queries in flight across a delta pay that. The
// in-CSR is the snapshot CSR's In(): on a symmetrized graph its own
// arrays, not a copy, which PageRank folds in the transpose's order. The
// in-CSR's occupancy words are built here too, so a PageRank miss builds
// none.
func (g *servedGraph) bind(snap *graph.Snapshot) *epochState {
	//lint:ignore lock the build runs after the Unlock, outside the lock; the section only reads and swaps g.bound, and it has no return
	g.mu.Lock()
	st := g.bound
	if st == nil || st.epoch != snap.Epoch() {
		fresh := &epochState{epoch: snap.Epoch(), snap: snap}
		if st == nil || st.epoch < fresh.epoch {
			g.bound = fresh
		}
		st = fresh
	}
	g.mu.Unlock()
	st.build.Do(func() {
		st.in = backend.FromCSR(st.snap.CSR().In()).WithOccupancy()
		st.outDeg = st.snap.CSR().OutDegrees()
	})
	return st
}

// Server is the always-on query service. Create with New, register graphs
// with AddGraph, mount Handler on a listener, Close when done.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	pool  *par.Pool
	adm   *Admission
	cache *resultCache

	mu     sync.Mutex
	graphs map[string]*servedGraph

	muxOnce sync.Once
	handler http.Handler

	// lane spreads histogram records across the registry's worker lanes;
	// request goroutines have no natural worker index.
	lane atomic.Int64
	// queryHist is serve.query_ns and kindHist the serve.query.<kind>_ns
	// family, resolved once in New and read-only after: recording a
	// request builds no name and takes no registry lock.
	queryHist *obs.Histogram
	kindHist  map[string]*obs.Histogram
	// The counters, resolved once in New like the histograms. computed
	// counts kernel executions (misses that led their key, and bypasses),
	// coalesced the times a request parked behind one, refreshed* the
	// misses answered by repairing a carried vector, prSweeps and
	// prResumed the PageRank sweeps run and the ones a resumed miss
	// skipped, panics the handler panics answered with a 500. Every
	// increment is one atomic add on one cache line, with no lane to pick
	// first.
	requests, deltas            *obs.Counter
	computed, coalesced, panics *obs.Counter
	refreshedBFS, refreshedCC   *obs.Counter
	prSweeps, prResumed         *obs.Counter

	// beforeExecute, when a test sets it, runs on the request goroutine
	// just before execute.
	beforeExecute func(query)

	// rankScratch, labelScratch and distScratch lend execute the O(n)
	// vectors a PageRank, connected-components or bypass BFS miss works in
	// (*rankVectors, *labelVectors, *distVectors). They are sync.Pools
	// because the scratch must be reclaimable when the server is idle: a
	// permanent free list showed up as +5.5 MB retained heap (DESIGN.md
	// §15).
	rankScratch  sync.Pool
	labelScratch sync.Pool
	distScratch  sync.Pool
}

// New builds a server with the given configuration. The caller owns it
// and must Close it (releasing the worker pool).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	pool := par.NewPool(cfg.Workers)
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * pool.Workers()
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		pool:   pool,
		cache:  newResultCache(cfg.CacheBytes, cfg.Registry),
		graphs: make(map[string]*servedGraph),

		queryHist: cfg.Registry.Hist("serve.query_ns"),
		kindHist:  make(map[string]*obs.Histogram),

		requests:     cfg.Registry.Counter("serve.requests"),
		deltas:       cfg.Registry.Counter("serve.deltas"),
		computed:     cfg.Registry.Counter("serve.computed"),
		coalesced:    cfg.Registry.Counter("serve.coalesced"),
		panics:       cfg.Registry.Counter("serve.panics"),
		refreshedBFS: cfg.Registry.Counter("serve.refreshed.bfs"),
		refreshedCC:  cfg.Registry.Counter("serve.refreshed.cc"),
		prSweeps:     cfg.Registry.Counter("serve.pagerank.sweeps"),
		prResumed:    cfg.Registry.Counter("serve.pagerank.resumed_sweeps"),
	}
	for _, kind := range queryKinds() {
		s.kindHist[kind] = cfg.Registry.Hist("serve.query." + kind + "_ns")
	}
	s.adm = NewAdmission(AdmissionConfig{
		MaxInFlight: cfg.MaxInFlight,
		QueueDepth:  cfg.QueueDepth,
		Registry:    cfg.Registry,
	})
	pool.SetRegistry(cfg.Registry)
	return s
}

// Registry exposes the server's metrics registry (for mounting /metrics
// or attaching a runtime sampler).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Pool exposes the shared kernel pool (tests and benchmarks).
func (s *Server) Pool() *par.Pool { return s.pool }

// Close releases the worker pool. The server must be idle.
func (s *Server) Close() { s.pool.Close() }

// AddGraph registers a versioned graph under name. Every published epoch
// (the current one now, each delta's result later) is saved into the
// graph's in-memory epoch store, whose accounting /graphs reports; the
// store is a ledger, not durable storage, and serve never reads it back.
func (s *Server) AddGraph(name string, v *graph.Versioned) error {
	if name == "" || v == nil {
		return fmt.Errorf("serve: AddGraph needs a name and a graph")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[name]; ok {
		return fmt.Errorf("serve: graph %q already registered", name)
	}
	g := &servedGraph{
		name:         name,
		v:            v,
		store:        ckpt.NewEpochStore(ckpt.Config{}),
		carriedVecs:  make(map[string]*carried),
		carriedGauge: s.reg.Gauge("serve.graph." + name + ".carried_bytes"),
		pendingGauge: s.reg.Gauge("serve.graph." + name + ".pending_edges"),
		epochGauge:   s.reg.Gauge("serve.graph." + name + ".epoch"),
	}
	if _, _, err := g.store.Save(v.Current(), 1); err != nil {
		return fmt.Errorf("serve: persisting %q epoch %d: %w", name, v.Epoch(), err)
	}
	s.graphs[name] = g
	g.epochGauge.Set(float64(v.Epoch()))
	return nil
}

// Graph returns the registered versioned graph by name (snapshot saving,
// tests).
func (s *Server) Graph(name string) (*graph.Versioned, bool) {
	g, ok := s.graphByName(name)
	if !ok {
		return nil, false
	}
	return g.v, true
}

// graphByName looks up a registered graph.
func (s *Server) graphByName(name string) (*servedGraph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[name]
	return g, ok
}

// graphNames returns the registered names sorted (deterministic listings).
func (s *Server) graphNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler returns the service mux: query and ingestion endpoints plus the
// obs diagnostics (/metrics, /metrics.json, /debug/pprof/) mounted on the
// same mux — one listener, one port. A clean /query/ path is routed to
// handleQuery before the mux, which would only pick that same handler at
// the cost of its own allocations; see isQueryPath. A handler that panics
// answers 500 (when nothing has been written yet), is counted in
// serve.panics and logged with its path; by the time the panic gets here
// the handler's own defers have already given back its admission slot and
// released the requests parked behind it.
func (s *Server) Handler() http.Handler {
	s.muxOnce.Do(func() {
		mux := s.newMux()
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					log.Printf("serve: panic serving %s: %v", r.URL.Path, p)
					writeError(w, http.StatusInternalServerError, "internal error")
				}
			}()
			if isQueryPath(r) {
				s.handleQuery(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		})
	})
	return s.handler
}

// newMux registers every endpoint on a fresh ServeMux.
func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query/", s.handleQuery)
	mux.HandleFunc("/delta", s.handleDelta)
	mux.HandleFunc("/graphs", s.handleGraphs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	obs.MuxOn(mux, s.reg)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// isQueryPath reports whether the mux would send r to handleQuery as it
// stands: a non-CONNECT request whose escaped path — the string the mux
// matches — starts with /query/ and is already clean, so the mux neither
// redirects it nor matches another pattern. Any other request, a
// /query/bfs/ or a /query/../delta among them, goes through the mux.
func isQueryPath(r *http.Request) bool {
	if r.Method == http.MethodConnect {
		return false
	}
	p := r.URL.EscapedPath()
	return strings.HasPrefix(p, "/query/") && path.Clean(p) == p
}

// nextLane picks a histogram lane for the calling request goroutine.
func (s *Server) nextLane() int { return int(s.lane.Add(1)) }
