package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/serve"
)

// builtinGraphs are graphserve's two built-in graphs: a symmetrized
// "social" graph and a directed "web" graph (cmd/graphserve.builtinGraphs).
var builtinGraphs = []struct {
	name string
	sym  bool
}{
	{"social", true},
	{"web", false},
}

// serveGraph is one served graph with what the checks need.
type serveGraph struct {
	name string
	v    *graph.Versioned
	hubs []uint32

	// lastDelta is the epoch of the latest /delta reply; first and last are
	// the snapshots of epoch 0 and of lastDelta, which the direct-run checks
	// use (holding every epoch here would show up in retained_mb). Only
	// set-up and the one client that posts deltas write them.
	lastDelta   uint64
	first, last *graph.Snapshot
}

// buildServeGraph generates and builds one graph exactly as
// cmd/graphserve.loadGraph does.
func buildServeGraph(name string, sym bool, sz sizing, seed int64, tr *tracer) (*serveGraph, error) {
	cfg := gen.Graph500Config(sz.serveScale, edgeFactor, seed+int64(len(name)))
	var (
		edges []graph.Edge
		csr   *graph.CSR
		err   error
	)
	tr.timed("gen.rmat", name, func() { edges, err = gen.RMAT(cfg) })
	if err != nil {
		return nil, err
	}
	orientation := graph.KeepDirection
	if sym {
		orientation = graph.Symmetrize
	}
	b := graph.NewBuilder(cfg.NumVertices())
	b.AddEdges(edges)
	tr.timed("graph.build", name, func() {
		csr, err = b.Build(graph.BuildOptions{
			Orientation:   orientation,
			Dedup:         true,
			DropSelfLoops: true,
			SortAdjacency: true,
		})
	})
	if err != nil {
		return nil, err
	}
	v, err := graph.NewVersioned(csr, graph.DeltaOptions{Symmetrize: sym, DropSelfLoops: true})
	if err != nil {
		return nil, err
	}
	snap := v.Current()
	return &serveGraph{name: name, v: v, hubs: topHubs(csr, 4), first: snap, last: snap}, nil
}

// topHubs returns the k highest-out-degree vertices, ties by id. After the
// Graph500 permutation a low-numbered vertex can be near-isolated, and a
// BFS from it is a no-op.
func topHubs(g *graph.CSR, k int) []uint32 {
	ids := make([]uint32, g.NumVertices)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids[:min(k, len(ids))]
}

// target is one entry of the query catalog.
type target struct {
	kind   string
	label  string // "<kind>/<graph>[/<variant>]", e.g. "pagerank/social/iters5"
	g      *serveGraph
	gi     int
	path   string
	iters  int    // pagerank
	source uint32 // bfs, datalog

	mu     sync.Mutex
	bodies map[uint64][]byte // epoch → first body seen
}

// sameBody reports whether body equals the first body seen for this target
// at this epoch, storing it if it is the first: hit ≡ miss ≡ bypass.
func (t *target) sameBody(epoch uint64, body []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	first, ok := t.bodies[epoch]
	if !ok {
		t.bodies[epoch] = bytes.Clone(body)
		return true
	}
	return bytes.Equal(first, body)
}

// catalogSize is the number of targets: per graph three PageRanks, four
// BFS hubs, CC and one Datalog. There is no tc: at scale 16 it alone would
// be the whole latency tail.
const catalogSize = 18

func buildCatalog(graphs []*serveGraph) []*target {
	var ts []*target
	for gi, g := range graphs {
		add := func(t *target) {
			t.g, t.gi, t.bodies = g, gi, make(map[uint64][]byte)
			ts = append(ts, t)
		}
		for _, iters := range []int{5, 10, 20} {
			add(&target{kind: "pagerank", iters: iters, label: fmt.Sprintf("pagerank/%s/iters%d", g.name, iters),
				path: fmt.Sprintf("/query/pagerank?graph=%s&iters=%d&k=5", g.name, iters)})
		}
		for hi, h := range g.hubs {
			add(&target{kind: "bfs", source: h, label: fmt.Sprintf("bfs/%s/hub%d", g.name, hi),
				path: fmt.Sprintf("/query/bfs?graph=%s&source=%d", g.name, h)})
		}
		add(&target{kind: "cc", label: "cc/" + g.name, path: "/query/cc?graph=" + g.name})
		add(&target{kind: "datalog", source: g.hubs[0], label: "datalog/" + g.name,
			path: fmt.Sprintf("/query/datalog?graph=%s&source=%d", g.name, g.hubs[0])})
	}
	return ts
}

// serveEnv is a live graphserve: shipped defaults, the real net/http
// listener on loopback, both graphs loaded, every target warmed.
type serveEnv struct {
	srv     *serve.Server
	graphs  []*serveGraph
	targets []*target
	hs      *http.Server
	served  chan error
	base    string
}

// setupServe is the cold set-up setup_s times. wrap, if not nil, is put
// around the server's handler (the tracer's span wrapper, or a test's
// fault injector).
func setupServe(seed int64, sz sizing, tr *tracer, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	env := &serveEnv{srv: serve.New(serve.Config{})}
	for _, bg := range builtinGraphs {
		g, err := buildServeGraph(bg.name, bg.sym, sz, seed, tr)
		if err == nil {
			err = env.srv.AddGraph(g.name, g.v)
		}
		if err != nil {
			env.srv.Close()
			return nil, fmt.Errorf("loading %s: %w", bg.name, err)
		}
		env.graphs = append(env.graphs, g)
	}
	env.targets = buildCatalog(env.graphs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Close()
		return nil, err
	}
	h := env.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	env.hs = &http.Server{Handler: h}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()

	// One untimed request per target fills the result cache and fixes the
	// first body every later response is compared with.
	warm := newClient(env, "", nil)
	for ti := range env.targets {
		warm.get(ti, 0)
	}
	warm.close()
	if warm.res.Failed > 0 {
		env.close()
		return nil, fmt.Errorf("warm-up: %v", warm.res.Notes)
	}
	return env, nil
}

func (e *serveEnv) close() {
	_ = e.hs.Close()
	<-e.served
	e.srv.Close()
}

// op is one step of a client's plan: a GET of a target as a tenant, or,
// when delta is not nil, a POST /delta.
type op struct {
	target int
	tenant int
	delta  *deltaOp
}

type deltaOp struct {
	graph int
	body  []byte
}

// planOps draws every client's op sequence from the seed before anything
// is timed.
func planOps(workload string, seed int64, sz sizing, perClient int) [][]op {
	const clients = 2 // = nproc on the reference host
	plans := make([][]op, clients)
	deltaRng := rand.New(rand.NewSource(seed ^ 0x5eed))
	deltas := 0
	for c := range plans {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		tenantZipf := rand.NewZipf(rng, 1.3, 1, tenants-1)
		targetZipf := rand.NewZipf(rng, 1.2, 1, catalogSize-1)
		var ops []op
		if workload == wlMiss {
			// Uniform over the catalog: each target exactly perClient
			// times, in a seeded order.
			for r := 0; r < perClient; r++ {
				for ti := 0; ti < catalogSize; ti++ {
					ops = append(ops, op{target: ti, tenant: int(tenantZipf.Uint64())})
				}
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		} else {
			for i := 0; i < perClient; i++ {
				ops = append(ops, op{target: int(targetZipf.Uint64()), tenant: int(tenantZipf.Uint64())})
			}
		}
		if workload == wlChurn && c == 0 {
			for i := sz.churnEvery - 1; i < len(ops); i += sz.churnEvery {
				ops[i].delta = newDelta(deltaRng, deltas%len(builtinGraphs), sz)
				deltas++
			}
		}
		plans[c] = ops
	}
	return plans
}

func newDelta(rng *rand.Rand, graphIdx int, sz sizing) *deltaOp {
	n := 1 << sz.serveScale
	edges := make([][2]uint32, deltaEdges)
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	body, err := json.Marshal(map[string]any{"graph": builtinGraphs[graphIdx].name, "edges": edges})
	if err != nil {
		panic(err) // a map of strings and integers always marshals
	}
	return &deltaOp{graph: graphIdx, body: body}
}

// clientResult is what one client saw.
type clientResult struct {
	Attempted int
	Failed    int
	Hits      int
	Misses    int
	Shed      int
	Deltas    int
	Lat       map[string][]int64 // op kind[/sub] → latencies in ns, successful ops only
	Notes     []string           // the first few failures
}

func (r *clientResult) merge(o *clientResult) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Hits += o.Hits
	r.Misses += o.Misses
	r.Shed += o.Shed
	r.Deltas += o.Deltas
	if r.Lat == nil {
		r.Lat = make(map[string][]int64)
	}
	for k, xs := range o.Lat {
		r.Lat[k] = append(r.Lat[k], xs...)
	}
	r.Notes = append(r.Notes, o.Notes...)
	if len(r.Notes) > 8 {
		r.Notes = r.Notes[:8]
	}
}

func (r *clientResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 4 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop caller on its own keep-alive connection: it
// sends its next request only after the previous reply is checked.
type client struct {
	env  *serveEnv
	mode string // the workload: names the op kinds and the expected X-Cache
	tr   *tracer
	hc   *http.Client

	// reqs holds one reusable request per (target, tenant): net/http allows
	// reuse once the previous response body is closed, and building a
	// request costs more than a served cache hit.
	reqs      map[[2]int]*http.Request
	buf       bytes.Buffer
	lastEpoch []uint64 // per graph, the newest epoch any reply showed
	res       clientResult
}

func newClient(env *serveEnv, mode string, tr *tracer) *client {
	return &client{
		env: env, mode: mode, tr: tr,
		hc:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		reqs:      make(map[[2]int]*http.Request),
		lastEpoch: make([]uint64, len(env.graphs)),
		res:       clientResult{Lat: make(map[string][]int64)},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) run(ops []op) {
	for _, o := range ops {
		if o.delta != nil {
			c.postDelta(o.delta)
		} else {
			c.get(o.target, o.tenant)
		}
	}
}

// send does one round trip, leaving the body in c.buf. With tracing on it
// opens the client.rtt span the server-side span is parented to; the
// caller closes it with endSpan once it knows the op kind.
func (c *client) send(req *http.Request) (status int, xcache string, start time.Time, spanID int64, err error) {
	if c.tr != nil {
		spanID = c.tr.newID()
		req.Header[spanHeader] = []string{strconv.FormatInt(spanID, 10)}
	}
	start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", start, spanID, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), start, spanID, err
}

func (c *client) endSpan(id int64, kind string, start time.Time, lat time.Duration) {
	if c.tr != nil {
		s := int64(start.Sub(c.tr.t0))
		c.tr.record(span{Name: "client.rtt", Kind: kind, Start: s, End: s + int64(lat), ID: id, Req: id})
	}
}

func (c *client) get(ti, tenant int) {
	t := c.env.targets[ti]
	req := c.reqs[[2]int{ti, tenant}]
	if req == nil {
		var err error
		req, err = http.NewRequest(http.MethodGet, c.env.base+t.path, nil)
		if err != nil {
			panic(err) // the catalog's URLs are fixed strings
		}
		req.Header.Set("X-Tenant", "tenant-"+strconv.Itoa(tenant))
		if c.mode == wlMiss {
			req.Header.Set("Cache-Control", "no-cache")
		}
		c.reqs[[2]int{ti, tenant}] = req
	}
	status, xcache, start, spanID, err := c.send(req)
	lat := time.Since(start)
	c.res.Attempted++

	// The op kind, "<kind>" or "<kind>/<sub>": the cache outcome where the
	// workload mixes outcomes, the query kind where every request is
	// recomputed. Recomputed queries carry their catalog entry as <sub>:
	// one kind's targets differ severalfold (iters 5 to 20, social or web),
	// and a median over such a mix flips between the modes.
	kind, want := xcache, ""
	switch {
	case c.mode == wlHot:
		kind, want = "hit", "hit"
	case c.mode == wlMiss:
		kind, want = t.label, "bypass"
	case xcache != "hit":
		kind = "miss/" + t.label
	}
	c.endSpan(spanID, kind, start, lat)

	body := c.buf.Bytes()
	switch {
	case err != nil:
		c.res.fail("GET %s: %v", t.path, err)
		return
	case status == http.StatusTooManyRequests:
		c.res.Shed++
		c.res.fail("GET %s: shed", t.path)
		return
	case status != http.StatusOK:
		c.res.fail("GET %s: status %d: %s", t.path, status, bytes.TrimSpace(body))
		return
	case want != "" && xcache != want:
		c.res.fail("GET %s: X-Cache %q, want %q", t.path, xcache, want)
		return
	}
	epoch, ok := epochOf(body)
	switch {
	case !ok:
		c.res.fail("GET %s: no epoch in %q", t.path, body)
		return
	case epoch < c.lastEpoch[t.gi]:
		c.res.fail("GET %s: epoch %d after epoch %d", t.path, epoch, c.lastEpoch[t.gi])
		return
	case !t.sameBody(epoch, body):
		c.res.fail("GET %s: body differs from the first seen at epoch %d", t.path, epoch)
		return
	}
	c.lastEpoch[t.gi] = epoch
	if xcache == "hit" {
		c.res.Hits++
	} else {
		c.res.Misses++
	}
	c.res.Lat[kind] = append(c.res.Lat[kind], int64(lat))
}

// epochOf reads the "epoch" field without unmarshalling the whole body:
// the client's own cost is part of cpu_ms_per_op.
func epochOf(body []byte) (uint64, bool) {
	const key = `"epoch":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	epoch, err := strconv.ParseUint(string(rest[:n]), 10, 64)
	return epoch, err == nil
}

func (c *client) postDelta(d *deltaOp) {
	g := c.env.graphs[d.graph]
	req, err := http.NewRequest(http.MethodPost, c.env.base+"/delta", bytes.NewReader(d.body))
	if err != nil {
		panic(err) // fixed URL
	}
	req.Header.Set("Content-Type", "application/json")
	status, _, start, spanID, err := c.send(req)
	lat := time.Since(start)
	c.endSpan(spanID, "delta", start, lat)
	c.res.Attempted++
	if err != nil || status != http.StatusOK {
		c.res.fail("POST /delta %s: status %d, err %v", g.name, status, err)
		return
	}
	var reply struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &reply); err != nil {
		c.res.fail("POST /delta %s: %v", g.name, err)
		return
	}
	// This client is the only writer, so the graph's current snapshot is
	// the one the reply names.
	snap := g.v.Current()
	if reply.Epoch != g.lastDelta+1 || uint64(snap.Epoch()) != reply.Epoch {
		c.res.fail("POST /delta %s: epoch %d after %d (current %d)", g.name, reply.Epoch, g.lastDelta, snap.Epoch())
		return
	}
	g.lastDelta, g.last = reply.Epoch, snap
	c.lastEpoch[d.graph] = reply.Epoch
	c.res.Deltas++
	c.res.Lat["delta"] = append(c.res.Lat["delta"], int64(lat))
}

// runClients runs one closed-loop client per plan to completion and
// returns what they saw. The plans are cut into `segments` equal parts;
// after each part but the last every client stops and between runs (the
// host probe's burst).
func (e *serveEnv) runClients(mode string, plans [][]op, tr *tracer, segments int, between func()) *clientResult {
	clients := make([]*client, len(plans))
	for i := range plans {
		clients[i] = newClient(e, mode, tr)
	}
	for s := 0; s < segments; s++ {
		if s > 0 {
			between()
		}
		var wg sync.WaitGroup
		for i, plan := range plans {
			wg.Add(1)
			go func(c *client, part []op) {
				defer wg.Done()
				c.run(part)
			}(clients[i], plan[len(plan)*s/segments:len(plan)*(s+1)/segments])
		}
		wg.Wait()
	}
	total := &clientResult{}
	for _, c := range clients {
		c.close()
		total.merge(&c.res)
	}
	return total
}

// verifyDirect compares the served bfs.reached, cc.components and
// pagerank.iterations with a direct native run on the same snapshot. Every
// response is already pinned byte-identical to the first body of its
// (graph, epoch, fingerprint), so checking first bodies checks them all;
// the direct runs cover each graph's first and last epoch of the pass.
func (e *serveEnv) verifyDirect(res *clientResult) {
	for _, t := range e.targets {
		for _, snap := range []*graph.Snapshot{t.g.first, t.g.last} {
			epoch := uint64(snap.Epoch())
			body, seen := t.bodies[epoch]
			if !seen {
				continue // the plan never asked for this target at this epoch
			}
			if err := e.checkDirect(t, snap, body); err != nil {
				res.fail("%s epoch %d: %v", t.path, epoch, err)
			}
			if t.g.last == t.g.first {
				break
			}
		}
	}
}

func (e *serveEnv) checkDirect(t *target, snap *graph.Snapshot, body []byte) error {
	var got struct {
		Iterations int   `json:"iterations"`
		Reached    int64 `json:"reached"`
		Components int64 `json:"components"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	switch t.kind {
	case "pagerank":
		pr, err := native.New().PageRank(snap.CSR(), core.PageRankOptions{Iterations: t.iters, RandomJump: 0.3})
		if err != nil {
			return err
		}
		if pr.Stats.Iterations != got.Iterations {
			return fmt.Errorf("served %d iterations, native %d", got.Iterations, pr.Stats.Iterations)
		}
	case "bfs":
		bfs, err := native.New().BFS(snap.CSR(), core.BFSOptions{Source: t.source})
		if err != nil {
			return err
		}
		var reached int64
		for _, d := range bfs.Distances {
			if d >= 0 {
				reached++
			}
		}
		if reached != got.Reached {
			return fmt.Errorf("served reached %d, native %d", got.Reached, reached)
		}
	case "cc":
		labels := native.ConnectedComponents(e.srv.Pool(), backend.FromSnapshot(snap))
		distinct := make(map[uint32]struct{})
		for _, l := range labels {
			distinct[l] = struct{}{}
		}
		if int64(len(distinct)) != got.Components {
			return fmt.Errorf("served %d components, native %d", got.Components, len(distinct))
		}
	}
	return nil
}

// passResult is what one pass measured; a child process prints it as JSON
// and the parent folds the passes into the metrics.
type passResult struct {
	clientResult
	SetupS     float64
	WallS      float64
	CPUMs      float64
	AllocBytes uint64
	Mallocs    uint64
	PeakRSSMB  float64
	RetainedMB float64
	HostNs     float64    // the host probe's mean ns per load during the pass
	Layers     []layerRow `json:",omitempty"` // traced passes only
}

// atNominalHost returns the pass with every time stated at the nominal
// host speed (host.go); counts and sizes are as measured.
func (p *passResult) atNominalHost() *passResult {
	f := hostFactor(p.HostNs)
	q := *p
	q.SetupS, q.WallS, q.CPUMs = p.SetupS*f, p.WallS*f, p.CPUMs*f
	q.Lat = make(map[string][]int64, len(p.Lat))
	for k, xs := range p.Lat {
		scaled := make([]int64, len(xs))
		for i, x := range xs {
			scaled[i] = int64(float64(x) * f)
		}
		q.Lat[k] = scaled
	}
	return &q
}

// segments is how many parts a timed phase is cut into, with a host-probe
// burst between parts.
const segments = 8

// passOpts selects one pass.
type passOpts struct {
	workload string
	seed     int64
	sz       sizing
	tr       *tracer                         // nil for the untraced passes
	fault    func(http.Handler) http.Handler // tests only: corrupts responses
}

// runPass runs one pass of a workload: cold set-up, timed phase, checks.
func runPass(o passOpts) (*passResult, error) {
	var (
		res *passResult
		err error
	)
	switch o.workload {
	case wlHot, wlMiss, wlChurn:
		res, err = runServePass(o)
	case wlBatch:
		res, err = runBatchPass(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.Layers = o.tr.reduce()
	return res, nil
}

func runServePass(o passOpts) (*passResult, error) {
	perClient := map[string]int{wlHot: o.sz.hotOps, wlMiss: o.sz.missReps, wlChurn: o.sz.churnOps}[o.workload]
	plans := planOps(o.workload, o.seed, o.sz, perClient)

	wrap := o.fault
	if o.tr != nil {
		wrap = func(h http.Handler) http.Handler {
			if o.fault != nil {
				h = o.fault(h)
			}
			return o.tr.wrap(h)
		}
	}
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()
	host.burst()
	setupStart := time.Now()
	env, err := setupServe(o.seed, o.sz, o.tr, wrap)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &passResult{SetupS: time.Since(setupStart).Seconds()}

	phase := startPhase(host)
	seen := env.runClients(o.workload, plans, o.tr, segments, phase.between)
	phase.stop(res)
	res.clientResult = *seen
	env.verifyDirect(&res.clientResult)
	return res, nil
}
