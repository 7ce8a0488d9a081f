package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"

	"graphmaze/internal/backend"
	"graphmaze/internal/ckpt"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
	"graphmaze/internal/serve"
	"graphmaze/internal/socialite"
)

// datalogRule is internal/serve's default reachability program, which the
// catalog's datalog targets evaluate.
const datalogRule = "REACH(t, $MIN(d)) :- REACH(s, d0), d = d0 + 1, EDGE(s, t)."

// runProbe measures every per-layer metric except the four health metrics
// of the traced workload (client.lat_p99_ms, serve.cache_hit_rate,
// serve.shed_rate, trace.overhead_frac): it times calls into each layer's public
// functions from here, as spans, and reads the metrics off the spans. The
// served phases are cut-down copies of the workloads on a traced server;
// the miss phase uses one client, so a miss and its replayed kernel are
// both timed without a second request competing for the pool.
func runProbe(seed int64, sz sizing) (map[string]float64, *tracer, error) {
	tr := newTracer()
	out := make(map[string]float64)
	host, err := newHostProbe()
	if err != nil {
		return nil, nil, err
	}
	defer host.close()
	host.burst()
	env, err := setupServe(seed, sz, tr, tr.wrap)
	if err != nil {
		return nil, nil, err
	}
	defer env.close()
	host.burst()
	med := func(name, kind string) float64 { return median(tr.durationsMs(name, kind)) }
	fail := func(phase string, r *clientResult) error {
		return fmt.Errorf("probe %s: %d of %d ops failed: %v", phase, r.Failed, r.Attempted, r.Notes)
	}

	// Set-up layers.
	for _, g := range env.graphs {
		for i := 0; i < sz.probeReps; i++ {
			tr.timed("graph.transpose", g.name, func() { _ = g.first.CSR().Transpose() })
		}
	}
	out["gen.rmat_ms"] = med("gen.rmat", "")
	out["graph.build_ms"] = med("graph.build", "")
	out["graph.transpose_ms"] = med("graph.transpose", "")

	// Hit path.
	queryHist := env.srv.Registry().Hist("serve.query_ns")
	before := queryHist.Snapshot()
	hot := env.runClients(wlHot, planOps(wlHot, seed, sz, sz.probeHotOps), tr, 2, host.burst)
	if hot.Failed > 0 {
		return nil, nil, fail("hit", hot)
	}
	out["serve.query_p50_us"] = float64(queryHist.Snapshot().Sub(before).Quantile(0.5)) / 1e3
	out["serve.rtt_hit_us"] = med("client.rtt", "hit") * 1e3
	out["serve.handler_hit_us"] = med("serve.handler", "hit") * 1e3
	out["serve.nethttp_self_us"] = out["serve.rtt_hit_us"] - out["serve.handler_hit_us"]
	out["serve.handler_hit_allocs"] = handlerHitAllocs(env, sz.probeLoop/100)

	// Miss path: every target recomputed (no-cache) by one client, and the
	// same query replayed as a direct kernel call.
	missClient := newClient(env, wlMiss, tr)
	for ti := range env.targets {
		if ti%3 == 0 {
			host.burst()
		}
		for i := 0; i < sz.probeMissReps; i++ {
			missClient.get(ti, 0)
			if err := replayKernel(env, ti, tr); err != nil {
				return nil, nil, err
			}
		}
	}
	missClient.close()
	if missClient.res.Failed > 0 {
		return nil, nil, fail("miss", &missClient.res)
	}
	// Per kind, the mean over its targets of each target's median, so that
	// miss = kernel + self holds by construction.
	for _, kind := range serveKinds {
		var missMs, kernelMs, n float64
		for _, t := range env.targets {
			if t.kind == kind {
				missMs += med("client.rtt", t.label)
				kernelMs += med("kernel", t.label)
				n++
			}
		}
		out["serve.miss_ms."+kind] = missMs / n
		out["serve.kernel_ms."+kind] = kernelMs / n
		out["serve.miss_self_ms."+kind] = (missMs - kernelMs) / n
	}

	// Write path beside reads, eight deltas.
	churnSz := sz
	churnSz.churnEvery = sz.probeChurnOps / 8
	churn := env.runClients(wlChurn, planOps(wlChurn, seed, churnSz, sz.probeChurnOps), tr, 4, host.burst)
	if churn.Failed > 0 || churn.Deltas == 0 {
		return nil, nil, fail("churn", churn)
	}
	out["serve.delta_rtt_ms"] = med("client.rtt", "delta")
	out["serve.misses_per_delta"] = float64(churn.Misses) / float64(churn.Deltas)
	if out["ckpt.retained_mb"], err = persistedMB(env); err != nil {
		return nil, nil, err
	}

	if err := probeIngest(env.graphs[1], seed, sz, tr); err != nil {
		return nil, nil, err
	}
	out["graph.apply_delta_ms"] = med("graph.apply_delta", "")
	out["graph.encode_snapshot_ms"] = med("graph.encode_snapshot", "")
	out["ckpt.epoch_save_ms"] = med("ckpt.epoch_save", "")
	blob, err := graph.EncodeSnapshot(nil, env.graphs[1].v.Current())
	if err != nil {
		return nil, nil, err
	}
	out["graph.snapshot_mb"] = float64(len(blob)) / (1 << 20)

	host.burst()
	probeMicro(env, sz, tr, out)
	host.burst()
	probeBackend(env, sz, tr, out)

	// Table 5: every engine × kernel cell, and each engine's slowdown
	// against Native as the geometric mean over the kernels.
	batch, err := setupBatch(seed, sz)
	if err != nil {
		return nil, nil, err
	}
	cells := clientResult{Lat: make(map[string][]int64)}
	batch.runRounds(1, nil, &cells, nil) // warm-up
	host.burst()
	batch.runRounds(max(2, sz.probeReps/2), tr, &cells, host.burst)
	if cells.Failed > 0 {
		return nil, nil, fail("table5", &cells)
	}
	for _, e := range engineNames {
		var ratios []float64
		for _, k := range kernelNames {
			ms := med("engine", e+"."+k)
			out[e+"."+k+"_ms"] = ms
			ratios = append(ratios, ms/med("engine", "native."+k))
		}
		out[e+".slowdown_geomean"] = geomean(ratios)
	}

	// State every time and rate at the nominal host speed (host.go); the
	// span files keep the times as measured.
	f := hostFactor(host.meanLoadNs())
	for _, d := range perLayer {
		out[d.Name] = scaleByUnit(d.Unit, out[d.Name], f)
	}
	out["host.memwalk_ns"] = host.meanLoadNs()
	return out, tr, nil
}

// handlerHitAllocs counts heap allocations per cache hit inside the
// service's handler, called directly with no net/http around it.
func handlerHitAllocs(env *serveEnv, n int) float64 {
	h := env.srv.Handler()
	req := httptest.NewRequest(http.MethodGet, env.targets[0].path, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.ServeHTTP(discardWriter{}, req)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// discardWriter is a ResponseWriter that allocates nothing itself except
// the header map the handler fills.
type discardWriter struct{}

func (discardWriter) Header() http.Header         { return make(http.Header) }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// replayKernel runs the kernel behind one catalog entry directly on the
// graph's current snapshot, on the server's own pool: what a miss would
// cost if the serve layer around the kernel were free.
func replayKernel(env *serveEnv, ti int, tr *tracer) error {
	t := env.targets[ti]
	pool := env.srv.Pool()
	snap := t.g.v.Current()
	kind := t.label
	switch t.kind {
	case "pagerank":
		// The bind (transpose and out-degrees, once per epoch) and the
		// per-request vectors are the serve layer's work, so they stay
		// outside the span.
		in := snap.CSR().Transpose()
		outDeg := snap.CSR().OutDegrees()
		n := len(outDeg)
		pr, next, contrib := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range pr {
			pr[i] = 1
		}
		const jump = 0.3
		tr.timed("kernel", kind, func() {
			mul := backend.NewSumVecMul(pool, backend.FromCSR(in))
			contribPass := backend.NewDense(pool, n, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					if outDeg[v] > 0 {
						contrib[v] = (1 - jump) * pr[v] / float64(outDeg[v])
					} else {
						contrib[v] = 0
					}
				}
			})
			for it := 0; it < t.iters; it++ {
				contribPass.Run()
				mul.MapInto(next, contrib, func(_ uint32, sum float64) float64 { return jump + sum })
				pr, next = next, pr
			}
		})
	case "bfs":
		dist := make([]int32, snap.NumVertices())
		for i := range dist {
			dist[i] = -1
		}
		dist[t.source] = 0
		tr.timed("kernel", kind, func() {
			backend.NewTraversal(pool, backend.FromSnapshot(snap), "bench.bfs.level", nil).Run(dist, t.source)
		})
	case "cc":
		tr.timed("kernel", kind, func() { native.ConnectedComponents(pool, backend.FromSnapshot(snap)) })
	case "datalog":
		reg := socialite.NewRegistry()
		reg.Register(socialite.NewEdgeTable("EDGE", snap.CSR()))
		tbl := socialite.NewVecTable("REACH", snap.NumVertices())
		reg.Register(tbl)
		tbl.Put(t.source, socialite.Scalar(0))
		rule, err := socialite.Parse(datalogRule, reg)
		if err != nil {
			return err
		}
		delta := []uint32{t.source}
		tr.timed("kernel", kind, func() {
			for len(delta) > 0 && err == nil {
				var stats socialite.EvalStats
				stats, err = socialite.EvalParallel(rule, 0, tbl.NumKeys(), delta, nil, 0, true)
				delta = stats.Changed
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// persistedMB asks /graphs how many bytes the epoch stores retain.
func persistedMB(env *serveEnv) (float64, error) {
	resp, err := http.Get(env.base + "/graphs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var infos []struct {
		PersistedBytes int64 `json:"persisted_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, fmt.Errorf("GET /graphs: %w", err)
	}
	var total int64
	for _, in := range infos {
		total += in.PersistedBytes
	}
	return float64(total) / (1 << 20), nil
}

// probeIngest times the ingest path's three steps as direct calls on a
// private copy of the graph: ApplyDelta, EncodeSnapshot, EpochStore.Save.
func probeIngest(g *serveGraph, seed int64, sz sizing, tr *tracer) error {
	v, err := graph.NewVersioned(g.first.CSR(), g.v.Options())
	if err != nil {
		return err
	}
	store := ckpt.NewEpochStore(ckpt.Config{})
	rng := rand.New(rand.NewSource(seed ^ 0xde17a))
	n := uint32(1) << uint(sz.serveScale)
	for i := 0; i < sz.probeReps; i++ {
		delta := make([]graph.Edge, deltaEdges)
		for j := range delta {
			delta[j] = graph.Edge{Src: rng.Uint32() % n, Dst: rng.Uint32() % n}
		}
		var snap *graph.Snapshot
		tr.timed("graph.apply_delta", g.name, func() { snap, _, _, err = v.ApplyDelta(delta) })
		if err != nil {
			return err
		}
		tr.timed("graph.encode_snapshot", g.name, func() { _, err = graph.EncodeSnapshot(nil, snap) })
		if err != nil {
			return err
		}
		tr.timed("ckpt.epoch_save", g.name, func() { _, _, err = store.Save(snap, 1) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeMicro times the small fixed costs on the hit path and under every
// kernel, each as one span around a loop.
func probeMicro(env *serveEnv, sz sizing, tr *tracer, out map[string]float64) {
	n := sz.probeLoop
	perCall := func(ms float64, unit float64) float64 { return ms * 1e6 / unit / float64(n) }

	adm := serve.NewAdmission(serve.AdmissionConfig{MaxInFlight: 4, QueueDepth: 64})
	ctx := context.Background()
	out["serve.admission_us"] = perCall(tr.timed("serve.admission", "", func() {
		for i := 0; i < n; i++ {
			if adm.Acquire(ctx, "tenant-0") == nil {
				adm.Release()
			}
		}
	}), 1e3)

	hist := obs.NewRegistry().Hist("bench.probe_ns")
	out["obs.hist_record_ns"] = perCall(tr.timed("obs.hist_record", "", func() {
		for i := 0; i < n; i++ {
			hist.Record(i, int64(i))
		}
	}), 1)

	// An empty body over one index per worker: what is left is the cost of
	// waking the workers and joining them.
	pool := env.srv.Pool()
	dense := backend.NewDense(pool, pool.Workers(), func(lo, hi int) {})
	out["backend.pool_dispatch_us"] = perCall(tr.timed("backend.pool_dispatch", "", func() {
		for i := 0; i < n; i++ {
			dense.Run()
		}
	}), 1e3)
	out["par.for_dispatch_us"] = perCall(tr.timed("par.for_dispatch", "", func() {
		for i := 0; i < n; i++ {
			par.For(par.NumWorkers(), func(lo, hi int) {})
		}
	}), 1e3)
}

// probeBackend reports the SpMV kernel as achieved GB/s against a triad
// measured in the same process (the paper's Table 4 discipline), and BFS
// as edges per second. Computed bytes for one SpMV are 12 B per edge
// (column index, gathered source value) plus 16 B per vertex (row offset,
// result).
func probeBackend(env *serveEnv, sz sizing, tr *tracer, out map[string]float64) {
	pool := env.srv.Pool()
	web := env.graphs[1].v.Current().CSR()
	in := web.Transpose()
	n := int(in.NumVertices)
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	mul := backend.NewSumVecMul(pool, backend.FromCSR(in))
	mul.MapInto(y, x, nil) // builds the cached row splits
	for i := 0; i < 4*sz.probeReps; i++ {
		tr.timed("backend.spmv", "", func() { mul.MapInto(y, x, nil) })
	}
	spmvMs := median(tr.durationsMs("backend.spmv", ""))
	bytes := 12*float64(in.NumEdges()) + 16*float64(n)
	out["backend.spmv_ms"] = spmvMs
	out["backend.spmv_gbs"] = bytes / (spmvMs / 1e3) / 1e9

	// Triad a[i] = b[i] + s*c[i], 24 B per element, over arrays far larger
	// than the 4 MB/core L2. The VM reports a 260 MB L3, which the arrays
	// cannot exceed fourfold in this sandbox; three of them exceed it once.
	a, b, c := make([]float64, sz.streamWords), make([]float64, sz.streamWords), make([]float64, sz.streamWords)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad := backend.NewDense(pool, len(a), func(lo, hi int) {
		a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	triad.Run() // faults the destination in
	for i := 0; i < sz.probeReps; i++ {
		tr.timed("backend.stream_triad", "", triad.Run)
	}
	triadMs := median(tr.durationsMs("backend.stream_triad", ""))
	out["backend.stream_gbs"] = 24 * float64(len(a)) / (triadMs / 1e3) / 1e9
	out["backend.spmv_bw_frac"] = out["backend.spmv_gbs"] / out["backend.stream_gbs"]

	social := env.graphs[0]
	snap := social.v.Current()
	dist := make([]int32, snap.NumVertices())
	for i := 0; i < 2*sz.probeReps; i++ {
		for j := range dist {
			dist[j] = -1
		}
		dist[social.hubs[0]] = 0
		tr.timed("backend.bfs", "", func() {
			backend.NewTraversal(pool, backend.FromSnapshot(snap), "bench.bfs.level", nil).Run(dist, social.hubs[0])
		})
	}
	bfsMs := median(tr.durationsMs("backend.bfs", ""))
	out["backend.bfs_medges_s"] = float64(snap.NumEdges()) / (bfsMs / 1e3) / 1e6
}
