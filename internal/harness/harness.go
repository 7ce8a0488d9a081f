// Package harness defines the paper's experiments: one runnable definition
// per table and figure of the evaluation (DESIGN.md §4 maps them). The
// cmd/graphbench binary and the repository's benchmarks both drive this
// package.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the experiment's report (required).
	Out io.Writer
	// Scale is the base RMAT scale for synthetic inputs; 0 picks the
	// experiment default.
	Scale int
	// Nodes overrides the node counts of scaling experiments.
	Nodes []int
	// Iterations for the iterative algorithms; 0 picks the default (5).
	Iterations int
	// Quick shrinks inputs for smoke-testing.
	Quick bool
	// Trace, when non-nil, receives spans and counters from every run: the
	// harness attaches it to each engine execution (and its simulated
	// cluster).
	Trace *trace.Tracer
	// JSON, when non-nil, receives a machine-readable report of every
	// measurement (and the trace summary, if tracing) after the experiment
	// completes.
	JSON io.Writer
	// Faults is a fault-plan spec (fault.ParsePlan grammar) for the
	// fault-tolerance experiment; empty runs its default crash sweep.
	// Plans are single-use, so the spec is re-parsed for every run.
	Faults string
	// CkptInterval overrides the checkpoint interval (in phases) for the
	// fault-tolerance experiment's recovery runs; 0 picks the default.
	CkptInterval int
	// Deltas is the number of delta batches the stream experiment ingests;
	// 0 picks the default.
	Deltas int

	// rec collects RunRecords when Run wants a machine-readable report.
	rec *[]RunRecord
}

// scale is an experiment's input scale: Scale when set, else the quick
// default under Quick and the full one otherwise.
func (o Options) scale(full, quick int) int {
	switch {
	case o.Scale != 0:
		return o.Scale
	case o.Quick:
		return quick
	}
	return full
}

// RunRecord is one measurement in the machine-readable report.
type RunRecord struct {
	Engine  string          `json:"engine"`
	Algo    string          `json:"algo"`
	Nodes   int             `json:"nodes"`
	Seconds float64         `json:"seconds"`
	Error   string          `json:"error,omitempty"`
	Report  *cluster.Report `json:"report,omitempty"`
	// Hists holds the quantile summary of every registry histogram that
	// recorded during this run and no other (the harness diffs histogram
	// snapshots around each engine execution): per-phase latency tails and
	// pool dispatch/park times. Only present when tracing is on.
	Hists map[string]obs.Quantiles `json:"hists,omitempty"`
}

// jsonReport is the top-level machine-readable experiment report.
type jsonReport struct {
	Experiment string         `json:"experiment"`
	Runs       []RunRecord    `json:"runs"`
	Trace      *trace.Summary `json:"trace,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 5
	}
	return o
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options) error
}

// Experiments lists every table and figure reproduction.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table4", Title: "Table 4: native implementation efficiency vs hardware limits", Run: Table4},
		{ID: "table5", Title: "Table 5: single-node slowdowns vs native (geomean)", Run: Table5},
		{ID: "table6", Title: "Table 6: multi-node slowdowns vs native (geomean)", Run: Table6},
		{ID: "table7", Title: "Table 7: SociaLite network-optimization speedups", Run: Table7},
		{ID: "fig3", Title: "Figure 3: single-node runtimes per dataset", Run: Figure3},
		{ID: "fig4", Title: "Figure 4: weak scaling on synthetic graphs", Run: Figure4},
		{ID: "fig5", Title: "Figure 5: large real-world graphs on multiple nodes", Run: Figure5},
		{ID: "fig6", Title: "Figure 6: system metrics on 4-node runs", Run: Figure6},
		{ID: "fig7", Title: "Figure 7: native optimization ablation (PageRank, BFS)", Run: Figure7},
		{ID: "tcablation", Title: "§6.1.2: triangle-counting bit-vector ablation", Run: TriangleBitvectorAblation},
		{ID: "giraphsplit", Title: "§6.1.3: Giraph phased-superstep memory", Run: GiraphPhasedSupersteps},
		{ID: "giraphfix", Title: "§6.2: Giraph roadmap (combiners + more workers)", Run: GiraphRoadmap},
		{ID: "sgdgd", Title: "§3.2: SGD vs GD convergence", Run: SGDvsGD},
		{ID: "faulttol", Title: "DESIGN.md §10: checkpoint overhead & recovery cost", Run: FaultTolerance},
		{ID: "stream", Title: "DESIGN.md §14: epoch deltas — update latency vs staleness", Run: Stream},
	}
}

// Run executes the experiment with the given id ("all" runs everything).
// With a tracer in the options every engine execution records spans into
// it; with a JSON writer, a machine-readable report follows the tables.
func Run(id string, opt Options) error {
	var records []RunRecord
	if opt.JSON != nil {
		opt.rec = &records
	}
	if err := runExperiments(id, opt); err != nil {
		return err
	}
	if opt.JSON != nil {
		rep := jsonReport{Experiment: id, Runs: records, Trace: trace.Summarize(opt.Trace)}
		if rep.Runs == nil {
			rep.Runs = []RunRecord{}
		}
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return nil
}

func runExperiments(id string, opt Options) error {
	if id == "all" {
		for _, exp := range Experiments() {
			fmt.Fprintf(opt.Out, "==== %s — %s ====\n", exp.ID, exp.Title)
			if err := exp.Run(opt); err != nil {
				return fmt.Errorf("%s: %w", exp.ID, err)
			}
			fmt.Fprintln(opt.Out)
		}
		return nil
	}
	for _, exp := range Experiments() {
		if exp.ID == id {
			return exp.Run(opt)
		}
	}
	ids := make([]string, 0)
	for _, exp := range Experiments() {
		ids = append(ids, exp.ID)
	}
	return fmt.Errorf("harness: unknown experiment %q (have %s, all)", id, strings.Join(ids, ", "))
}

// Algo identifies one of the paper's four algorithms.
type Algo int

const (
	PR Algo = iota
	BFS
	TC
	CF
)

func (a Algo) String() string {
	switch a {
	case PR:
		return "PageRank"
	case BFS:
		return "BFS"
	case TC:
		return "TriangleCount"
	case CF:
		return "CollabFilter"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// Algos lists all four in the paper's order.
func Algos() []Algo { return []Algo{PR, BFS, CF, TC} }

// inputs bundles prepared graphs for all four algorithms.
type inputs struct {
	pr, bfs, tc *graph.CSR
	cf          *graph.Bipartite
}

// buildInputs generates a synthetic input set at the given scale.
func buildInputs(scale int, seed int64) (inputs, error) {
	var in inputs
	var err error
	if in.pr, err = datasets.Generate(scale, 16, seed, datasets.PrepPageRank); err != nil {
		return in, err
	}
	if in.bfs, err = datasets.Generate(scale, 16, seed+1, datasets.PrepBFS); err != nil {
		return in, err
	}
	if in.tc, err = datasets.Generate(scale, 8, seed+2, datasets.PrepTriangle); err != nil {
		return in, err
	}
	if in.cf, err = gen.Ratings(gen.DefaultRatingsConfig(scale, 16, seed+3)); err != nil {
		return in, err
	}
	return in, nil
}

// measurement is one (engine, algorithm, input) observation.
type measurement struct {
	seconds float64 // the paper's metric: per-iteration for PR/CF, total for BFS/TC
	report  cluster.Report
	err     error
}

// runOne executes algo on engine e over the input, single-node when
// nodes ≤ 1. The modeled node memory mirrors the paper's setup, where
// datasets were sized so the hungriest framework used >50% of a node
// (§5.4): capacity scales with the input rather than staying at the
// paper's literal 64 GB.
func runOne(opt Options, e core.Engine, algo Algo, in inputs, nodes, iterations int) measurement {
	// Snapshot the histogram registry before the run so the record can
	// carry exactly this run's observations (bucket counters are monotone,
	// so the snapshot difference is exact even on a shared tracer).
	var before map[string]obs.HistSnapshot
	if opt.rec != nil {
		before = opt.Trace.Registry().HistSnapshots()
	}
	sp := opt.Trace.Begin("harness.run", fmt.Sprintf("%s %s", e.Name(), algo)).
		Arg("nodes", float64(nodes))
	m := runMeasured(opt, e, algo, in, nodes, iterations)
	sp.End()
	if opt.rec != nil {
		rec := RunRecord{Engine: e.Name(), Algo: algo.String(), Nodes: nodes, Seconds: m.seconds}
		if m.err != nil {
			rec.Error = m.err.Error()
		}
		if m.report.SimulatedSeconds > 0 {
			r := m.report
			rec.Report = &r
		}
		rec.Hists = obs.DeltaQuantiles(before, opt.Trace.Registry().HistSnapshots())
		*opt.rec = append(*opt.rec, rec)
	}
	return m
}

func runMeasured(opt Options, e core.Engine, algo Algo, in inputs, nodes, iterations int) measurement {
	exec := core.Exec{Trace: opt.Trace}
	if nodes > 1 {
		var inputBytes int64
		switch algo {
		case PR:
			inputBytes = in.pr.MemoryBytes()
		case BFS:
			inputBytes = in.bfs.MemoryBytes()
		case TC:
			inputBytes = in.tc.MemoryBytes()
		case CF:
			inputBytes = in.cf.MemoryBytes()
		}
		// Capacity relative to input mirrors the paper's provisioning: the
		// synthetic runs fit (TC inputs get 4× more headroom, as the
		// paper's 32M-edges/node TC sizing did vs PageRank's 128M), while
		// CombBLAS's A² product on the Twitter-scale input — a ≈70×
		// blowup with block skew — exhausts memory, reproducing Figure
		// 5's missing data point.
		multiplier := int64(64)
		if algo == TC {
			multiplier = 128
		}
		memPerNode := multiplier * inputBytes / int64(nodes)
		exec.Cluster = &cluster.Config{Nodes: nodes, MemoryPerNode: memPerNode}
	}
	switch algo {
	case PR:
		res, err := e.PageRank(in.pr, core.PageRankOptions{Iterations: iterations, Exec: exec})
		if err != nil {
			return measurement{err: err}
		}
		return measurement{seconds: res.Stats.WallSeconds / float64(iterations), report: res.Stats.Report}
	case BFS:
		res, err := e.BFS(in.bfs, core.BFSOptions{Source: bfsSource(in.bfs), Exec: exec})
		if err != nil {
			return measurement{err: err}
		}
		return measurement{seconds: res.Stats.WallSeconds, report: res.Stats.Report}
	case TC:
		res, err := e.TriangleCount(in.tc, core.TriangleOptions{Exec: exec})
		if err != nil {
			return measurement{err: err}
		}
		return measurement{seconds: res.Stats.WallSeconds, report: res.Stats.Report}
	case CF:
		method := core.GradientDescent
		if e.Capabilities().SGD {
			method = core.SGD // the paper compares time/iteration, native & Galois run SGD
		}
		res, err := e.CollabFilter(in.cf, core.CFOptions{Method: method, K: 8, Iterations: iterations, Seed: 7,
			SkipRMSETrajectory: true, Exec: exec})
		if err != nil {
			return measurement{err: err}
		}
		return measurement{seconds: res.Stats.WallSeconds / float64(iterations), report: res.Stats.Report}
	default:
		return measurement{err: fmt.Errorf("harness: unknown algorithm %v", algo)}
	}
}

// bfsSource picks a well-connected start vertex (the paper's BFS runs
// traverse most of the graph; a degree-0 start would trivialize the run).
func bfsSource(g *graph.CSR) uint32 {
	best := uint32(0)
	for v := uint32(0); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// geomean of positive values; zero if none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// formatSeconds renders a runtime compactly.
func formatSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3gs", s)
	}
}

// tableWriter accumulates aligned rows.
type tableWriter struct {
	header []string
	rows   [][]string
}

func (t *tableWriter) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tableWriter) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	for _, row := range t.rows {
		line(row)
	}
}

// hostPeakBandwidth measures an approximate memory-bandwidth ceiling for
// the host with a triad pass on a GOMAXPROCS-wide pool, standing in for
// the paper's STREAM numbers when normalizing Table 4.
func hostPeakBandwidth() float64 {
	const n = 1 << 22
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	pool := par.NewPool(0)
	defer pool.Close()
	triad := backend.NewDense(pool, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c[i] = a[i] + 2.5*b[i]
		}
	})
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		triad.Run()
		elapsed := time.Since(start).Seconds()
		if bw := float64(3*8*n) / elapsed; bw > best {
			best = bw
		}
	}
	return best
}
