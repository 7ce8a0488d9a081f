// Command bench is the repository's benchmark: four closed-loop workloads
// (three through a live graphserve, one over the engines directly), nine
// end-to-end metrics each, and a traced run that attributes time to
// layers. BENCHMARK.json at the root of the repository names what it
// prints; README.md in this directory says why each workload exists.
//
//	bash bench/run.sh -seed 7                      # all workloads, end to end
//	bash bench/run.sh -seed 7 -workload serve-hot  # one workload
//	bash bench/run.sh -seed 7 -trace 1             # per-layer metrics, span files
//	bash bench/run.sh -aa                          # the same code twice, gaps vs bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is one invocation's flags.
type runConfig struct {
	workloads []string
	seed      int64
	seconds   int
	trace     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (default: all of "+strings.Join(workloadNames, ", ")+")")
		seed     = fs.Int64("seed", 1, "seeds the RMAT graphs, Zipf draws, hub choice and delta edges together")
		seconds  = fs.Int("seconds", nominalSeconds, "time one run measures for, summed over its passes; scales the fixed op counts")
		trace    = fs.Int("trace", 0, "1: report the per-layer metrics from a traced pass and the layer probe, and write span files")
		aa       = fs.Bool("aa", false, "run the benchmark twice back to back and judge the gaps against BENCHMARK.json's bounds")
		child    = fs.String("child", "", "internal: run one pass in this process (pass, traced or probe)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	cfg := runConfig{workloads: workloadNames, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
			return 2
		}
		cfg.workloads = []string{*workload}
	}

	var err error
	switch {
	case *child != "":
		err = runChild(*child, cfg, stdout)
	case *aa:
		err = runAA(cfg, stdout, stderr)
	default:
		var rep *report
		if rep, err = runBenchmark(cfg, stderr); err == nil {
			rep.print(stdout)
			if !rep.Correct {
				err = fmt.Errorf("%d of %d ops failed their checks", rep.Failed, rep.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// childResult is what a child process prints as its last line.
type childResult struct {
	Pass  *passResult        `json:",omitempty"`
	Probe map[string]float64 `json:",omitempty"`
}

// runChild runs one pass or the layer probe in this process. Every pass is
// a fresh process so that each starts cold: empty heap, empty caches, its
// own peak RSS.
func runChild(mode string, cfg runConfig, stdout io.Writer) error {
	sz := fullSizing(cfg.seconds)
	var res childResult
	switch mode {
	case "pass", "traced":
		o := passOpts{workload: cfg.workloads[0], seed: cfg.seed, sz: sz}
		if mode == "traced" {
			o.tr = newTracer()
		}
		pass, err := runPass(o)
		if err != nil {
			return err
		}
		if o.tr != nil {
			if err := o.tr.writeFile(tracePath(o.workload)); err != nil {
				return err
			}
		}
		res.Pass = pass
	case "probe":
		metrics, tr, err := runProbe(cfg.seed, sz)
		if err != nil {
			return err
		}
		if err := tr.writeFile(tracePath("layers")); err != nil {
			return err
		}
		res.Probe = metrics
		res.Pass = &passResult{Layers: tr.reduce()}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(stdout).Encode(res)
}

func tracePath(name string) string {
	return filepath.Join("bench", "out", "trace-"+name+".json")
}

// spawn runs one child pass of this same binary and decodes its result.
// The child is killed if it outlives the driver's per-run limit.
func spawn(mode, workload string, cfg runConfig, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass of %s: %w", mode, workload, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s pass of %s: bad result: %w", mode, workload, err)
	}
	return &res, nil
}

// workloadReport is one workload's metrics and counts.
type workloadReport struct {
	Name      string
	Metrics   map[string]float64
	Attempted int
	Failed    int
	Samples   string     // sample counts behind the percentiles
	Notes     []string   // the first few failed checks
	Layers    []layerRow // the traced pass's span table
}

// report is everything one run of the benchmark measured.
type report struct {
	Trace       bool
	Workloads   []*workloadReport
	ProbeLayers []layerRow
	Correct     bool
	Attempted   int
	Failed      int
}

// runBenchmark runs the passes of every selected workload. Passes are
// interleaved round-robin over the workloads, so each workload's samples
// span the whole run instead of one slice of a drifting machine.
func runBenchmark(cfg runConfig, stderr io.Writer) (*report, error) {
	results := make(map[string][]*passResult)
	var modes []string
	for i := 0; i < passesPerRun; i++ {
		modes = append(modes, "pass")
	}
	if cfg.trace {
		// The per-layer run: one untraced and one traced pass, whose
		// goodput gap is the tracing overhead, then the layer probe.
		modes = []string{"pass", "traced"}
	}
	for _, mode := range modes {
		for _, w := range cfg.workloads {
			res, err := spawn(mode, w, cfg, stderr)
			if err != nil {
				return nil, err
			}
			results[w] = append(results[w], res.Pass.atNominalHost())
		}
	}
	var probe *childResult
	if cfg.trace {
		var err error
		if probe, err = spawn("probe", cfg.workloads[0], cfg, stderr); err != nil {
			return nil, err
		}
	}
	return assemble(cfg, results, probe), nil
}

// assemble folds the passes of each workload (and, for a traced run, the
// probe's result) into the report.
func assemble(cfg runConfig, passes map[string][]*passResult, probe *childResult) *report {
	rep := &report{Trace: cfg.trace}
	if cfg.trace {
		rep.ProbeLayers = probe.Pass.Layers
	}
	for _, w := range cfg.workloads {
		wr := &workloadReport{Name: w}
		if cfg.trace {
			wr.Metrics = tracedMetrics(passes[w][0], passes[w][1], probe.Probe)
			wr.Layers = passes[w][1].Layers
		} else {
			wr.Metrics, wr.Samples = endToEndMetrics(passes[w])
		}
		for _, p := range passes[w] {
			wr.Attempted += p.Attempted
			wr.Failed += p.Failed
			wr.Notes = append(wr.Notes, p.Notes...)
		}
		rep.Workloads = append(rep.Workloads, wr)
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// endToEndMetrics folds a workload's passes (already stated at the nominal
// host speed) into the nine end-to-end metrics: a timing is the median of
// its per-pass values; lat_p90_ms pools the samples of all passes, since
// one pass has too few beyond its p90.
func endToEndMetrics(passes []*passResult) (map[string]float64, string) {
	per := make(map[string][]float64)
	pooled := make(map[string][]int64)
	var hostNs []float64
	for _, p := range passes {
		ok := float64(p.Attempted - p.Failed)
		per["setup_s"] = append(per["setup_s"], p.SetupS)
		per["goodput_ops_s"] = append(per["goodput_ops_s"], ok/p.WallS)
		per["lat_p50_ms"] = append(per["lat_p50_ms"], kindQuantileMs(p.Lat, 0.5))
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], p.CPUMs/ok)
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(p.AllocBytes)/1e3/ok)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(p.Mallocs)/ok)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], p.PeakRSSMB)
		per["retained_mb"] = append(per["retained_mb"], p.RetainedMB)
		for k, xs := range p.Lat {
			pooled[k] = append(pooled[k], xs...)
		}
		hostNs = append(hostNs, p.HostNs)
	}
	out := make(map[string]float64)
	for name, xs := range per {
		out[name] = median(xs)
	}
	out["lat_p90_ms"] = kindQuantileMs(pooled, 0.9)

	lo, hi := math.MaxInt, 0
	for _, xs := range pooled {
		lo, hi = min(lo, len(xs)), max(hi, len(xs))
	}
	samples := fmt.Sprintf("%d op kinds and sub-kinds, %d to %d samples each over %d passes; host probe %.0f ns/load (times stated at %.0f)",
		len(pooled), lo, hi, len(passes), median(hostNs), nominalLoadNs)
	return out, samples
}

// tracedMetrics is the -trace 1 result for one workload: the probe's layer
// metrics plus the traced workload's own health.
func tracedMetrics(untraced, traced *passResult, probe map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(probe)+4)
	for k, v := range probe {
		out[k] = v
	}
	var all []int64
	for _, xs := range traced.Lat {
		all = append(all, xs...)
	}
	out["client.lat_p99_ms"] = float64(quantile(all, 0.99)) / 1e6
	out["serve.cache_hit_rate"] = ratio(traced.Hits, traced.Hits+traced.Misses)
	out["serve.shed_rate"] = ratio(traced.Shed, traced.Attempted)
	goodput := func(p *passResult) float64 { return float64(p.Attempted-p.Failed) / p.WallS }
	out["trace.overhead_frac"] = 1 - goodput(traced)/goodput(untraced)
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// print writes the human-readable tables and, as the last line, the one
// JSON object the driver reads.
func (r *report) print(w io.Writer) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}

	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "== %s: %d ops attempted, %d succeeded, %d failed\n", wr.Name, wr.Attempted, wr.Attempted-wr.Failed, wr.Failed)
		if wr.Samples != "" {
			fmt.Fprintf(w, "   percentiles: %s\n", wr.Samples)
		}
		for _, note := range wr.Notes {
			fmt.Fprintf(w, "   FAILED CHECK: %s\n", note)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, d := range defs {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", d.Name, wr.Metrics[d.Name], d.Unit)
			key := d.Name
			if len(r.Workloads) > 1 {
				key = wr.Name + "/" + d.Name
			}
			final.Metrics[key] = value{wr.Metrics[d.Name], d.Unit}
		}
		tw.Flush()
		printLayers(w, "spans of the traced pass, by self time", wr.Layers)
	}
	printLayers(w, "spans of the layer probe, by self time", r.ProbeLayers)
	line, err := json.Marshal(final)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the benchmark
	}
	fmt.Fprintf(w, "%s\n", line)
}

func printLayers(w io.Writer, title string, rows []layerRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "-- %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   span\tcount\tself ms\ttotal ms\tp50 ms")
	for _, row := range rows {
		fmt.Fprintf(tw, "   %s\t%d\t%.3f\t%.3f\t%.4f\n", row.Name, row.Count, row.SelfMs, row.TotalMs, row.P50Ms)
	}
	tw.Flush()
}

// runAA runs the benchmark twice on the same code and prints, per workload
// and end-to-end metric, both medians, their relative gap and whether the
// gap is inside the metric's bound in BENCHMARK.json.
func runAA(cfg runConfig, stdout, stderr io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.trace = false
	var reps [2]*report
	for i := range reps {
		if reps[i], err = runBenchmark(cfg, stderr); err != nil {
			return err
		}
		if !reps[i].Correct {
			return fmt.Errorf("run %d: %d of %d ops failed their checks", i+1, reps[i].Failed, reps[i].Attempted)
		}
	}
	failures := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\trun 1\trun 2\tgap\tbound\t")
	for wi, wr := range reps[0].Workloads {
		for _, m := range spec.EndToEnd {
			a, b := wr.Metrics[m.Name], reps[1].Workloads[wi].Metrics[m.Name]
			gap := math.Abs(b-a) / a
			verdict := "PASS"
			if !(gap <= m.Bound) {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n", wr.Name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if failures > 0 {
		return fmt.Errorf("%d metrics moved by more than their bound between two runs of the same code", failures)
	}
	return nil
}
