package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Workload names, as in BENCHMARK.json.
const (
	wlHot   = "serve-hot"
	wlMiss  = "serve-miss"
	wlChurn = "serve-churn"
	wlBatch = "batch-table5"
)

var workloadNames = []string{wlHot, wlMiss, wlChurn, wlBatch}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_ops_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "kB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"retained_mb", "MB"},
}

var (
	serveKinds  = []string{"pagerank", "bfs", "cc", "datalog"}
	engineNames = []string{"native", "combblas", "graphlab", "socialite", "giraph", "galois"}
	kernelNames = []string{"pagerank", "bfs", "tc"}
)

// perLayer lists the metrics reported with -trace 1.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"gen.rmat_ms", "ms"},
		{"graph.build_ms", "ms"},
		{"graph.transpose_ms", "ms"},
		{"graph.apply_delta_ms", "ms"},
		{"graph.encode_snapshot_ms", "ms"},
		{"graph.snapshot_mb", "MB"},
		{"ckpt.epoch_save_ms", "ms"},
		{"ckpt.retained_mb", "MB"},
		{"serve.delta_rtt_ms", "ms"},
		{"serve.misses_per_delta", "count"},
		{"serve.rtt_hit_us", "us"},
		{"serve.handler_hit_us", "us"},
		{"serve.nethttp_self_us", "us"},
		{"serve.admission_us", "us"},
		{"obs.hist_record_ns", "ns"},
		{"serve.query_p50_us", "us"},
		{"serve.handler_hit_allocs", "count"},
	}
	for _, prefix := range []string{"serve.miss_ms.", "serve.kernel_ms.", "serve.miss_self_ms."} {
		for _, k := range serveKinds {
			defs = append(defs, metricDef{prefix + k, "ms"})
		}
	}
	defs = append(defs,
		metricDef{"backend.spmv_ms", "ms"},
		metricDef{"backend.spmv_gbs", "GB/s"},
		metricDef{"backend.stream_gbs", "GB/s"},
		metricDef{"backend.spmv_bw_frac", "ratio"},
		metricDef{"backend.bfs_medges_s", "Medges/s"},
		metricDef{"backend.pool_dispatch_us", "us"},
		metricDef{"par.for_dispatch_us", "us"},
	)
	for _, e := range engineNames {
		for _, k := range kernelNames {
			defs = append(defs, metricDef{e + "." + k + "_ms", "ms"})
		}
		defs = append(defs, metricDef{e + ".slowdown_geomean", "ratio"})
	}
	return append(defs,
		metricDef{"client.lat_p99_ms", "ms"},
		metricDef{"serve.cache_hit_rate", "ratio"},
		metricDef{"serve.shed_rate", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"host.memwalk_ns", "ns"},
	)
}

// sizing fixes how much work one pass does. Op counts are fixed, not
// durations: a run's length follows from how fast the code is.
type sizing struct {
	serveScale int // RMAT scale of the two served graphs
	hotOps     int // serve-hot GETs per client
	missReps   int // serve-miss: passes over the whole catalog per client
	churnOps   int // serve-churn ops per client
	churnEvery int // client 0 posts a delta in place of every churnEvery-th op

	batchScale  int
	batchRounds int

	// The layer probe (-trace 1) runs cut-down copies of the workloads.
	probeHotOps   int
	probeMissReps int
	probeChurnOps int
	probeReps     int // repetitions of each direct call
	probeLoop     int // iterations of each micro-loop
	streamWords   int // float64s per triad array
}

// What no size changes: a run's passes, the served graphs' edge factor
// (graphserve's default), the tenant population and the edges per delta
// (the loadgen's defaults).
const (
	passesPerRun = 5
	edgeFactor   = 8
	tenants      = 8
	deltaEdges   = 64
)

// nominalSeconds is the measured time per run the full sizes were
// calibrated to on the 2-core reference host; -seconds scales them.
const nominalSeconds = 20

// fullSizing returns the sizes for a run that measures for about
// `seconds` seconds over all its passes.
func fullSizing(seconds int) sizing {
	scale := func(n int) int {
		return max(1, int(math.Round(float64(n)*float64(seconds)/nominalSeconds)))
	}
	return sizing{
		serveScale: 16,
		hotOps:     scale(85000),
		missReps:   scale(7),
		churnOps:   scale(13000),
		churnEvery: 1000,

		batchScale:  15,
		batchRounds: scale(4),

		probeHotOps:   10000,
		probeMissReps: 5,
		probeChurnOps: 4000,
		probeReps:     5,
		probeLoop:     200000,
		streamWords:   16 << 20, // 128 MB per array
	}
}

// smokeSizing is the in-process size bench_test.go runs.
func smokeSizing() sizing {
	return sizing{
		serveScale: 10,
		hotOps:     40,
		missReps:   1,
		churnOps:   40,
		churnEvery: 10,

		batchScale:  9,
		batchRounds: 1,

		probeHotOps:   40,
		probeMissReps: 1,
		probeChurnOps: 40,
		probeReps:     2,
		probeLoop:     1000,
		streamWords:   1 << 16,
	}
}

// benchSpec is the part of BENCHMARK.json the program itself reads: the
// names it must print and the bounds -aa judges against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}
