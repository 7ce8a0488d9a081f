package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"graphmaze"
	"graphmaze/internal/cluster"
	"graphmaze/internal/obs"
	"graphmaze/internal/trace"
)

func runQuick(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, Options{Out: &buf, Quick: true, Iterations: 2}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 15 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	var buf bytes.Buffer
	if err := Run("bogus", Options{Out: &buf}); err == nil {
		t.Error("accepted unknown experiment id")
	}
}

func TestTable4Quick(t *testing.T) {
	out := runQuick(t, "table4")
	for _, frag := range []string{"PageRank", "BFS", "CollabFilter", "TriangleCount", "Memory BW"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table4 output missing %q:\n%s", frag, out)
		}
	}
}

func TestTable5Quick(t *testing.T) {
	out := runQuick(t, "table5")
	for _, frag := range []string{"CombBLAS", "GraphLab", "SociaLite", "Giraph", "Galois"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table5 output missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "PageRank") {
		t.Errorf("table5 missing algorithm rows:\n%s", out)
	}
}

func TestTable6Quick(t *testing.T) {
	out := runQuick(t, "table6")
	// Galois has no multi-node runs.
	if !strings.Contains(out, "n/a") {
		t.Errorf("table6 should mark Galois n/a:\n%s", out)
	}
}

func TestTable7Quick(t *testing.T) {
	out := runQuick(t, "table7")
	if !strings.Contains(out, "Speedup") || !strings.Contains(out, "×") {
		t.Errorf("table7 output malformed:\n%s", out)
	}
}

func TestFigure3Quick(t *testing.T) {
	out := runQuick(t, "fig3")
	for _, frag := range []string{"livejournal", "facebook", "netflix", "PageRank", "CollabFilter"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig3 output missing %q", frag)
		}
	}
}

func TestFigure4Quick(t *testing.T) {
	out := runQuick(t, "fig4")
	if !strings.Contains(out, "weak scaling") || !strings.Contains(out, "nodes") {
		t.Errorf("fig4 output malformed:\n%s", out)
	}
}

func TestFigure5Quick(t *testing.T) {
	out := runQuick(t, "fig5")
	for _, frag := range []string{"Twitter", "Yahoo Music"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig5 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure6Quick(t *testing.T) {
	out := runQuick(t, "fig6")
	for _, frag := range []string{"CPU util", "peak net BW", "memory", "bytes sent"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig6 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure7Quick(t *testing.T) {
	out := runQuick(t, "fig7")
	for _, frag := range []string{"baseline", "+compression", "+overlap", "speedup"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig7 output missing %q:\n%s", frag, out)
		}
	}
}

func TestGiraphRoadmapQuick(t *testing.T) {
	out := runQuick(t, "giraphfix")
	for _, frag := range []string{"stock Giraph", "roadmap", "native reference"} {
		if !strings.Contains(out, frag) {
			t.Errorf("giraphfix output missing %q:\n%s", frag, out)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	if out := runQuick(t, "tcablation"); !strings.Contains(out, "speedup") {
		t.Errorf("tcablation output malformed:\n%s", out)
	}
	if out := runQuick(t, "giraphsplit"); !strings.Contains(out, "phased") {
		t.Errorf("giraphsplit output malformed:\n%s", out)
	}
	if out := runQuick(t, "sgdgd"); !strings.Contains(out, "SGD") {
		t.Errorf("sgdgd output malformed:\n%s", out)
	}
}

func TestFaultTolQuick(t *testing.T) {
	out := runQuick(t, "faulttol")
	for _, frag := range []string{"checkpoint overhead", "recovery cost", "Overhead", "Recoveries"} {
		if !strings.Contains(out, frag) {
			t.Errorf("faulttol output missing %q:\n%s", frag, out)
		}
	}
	// The determinism contract shows up in the table itself: every
	// recovered run must report bit-identical output.
	if strings.Contains(out, "DIFFERS") {
		t.Errorf("recovered output diverged from fault-free run:\n%s", out)
	}
	if !strings.Contains(out, "identical") {
		t.Errorf("no run verified against the fault-free baseline:\n%s", out)
	}
}

// TestFaultTolRecordsCarryHists: faulttol records its runs through the
// helper every other experiment uses, so under a tracer each record
// carries the histograms its own run observed: its one harness.run span
// and the cluster's per-node phase attribution.
func TestFaultTolRecordsCarryHists(t *testing.T) {
	var js bytes.Buffer
	if err := Run("faulttol", Options{Out: &bytes.Buffer{}, Quick: true, Iterations: 2, Trace: trace.New(), JSON: &js}); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("faulttol recorded no runs")
	}
	for i, r := range rep.Runs {
		if q := r.Hists["harness.run.dur_ns"]; q.Count != 1 {
			t.Errorf("record %d (%s %s): harness.run.dur_ns count %d, want 1; hists %v", i, r.Engine, r.Algo, q.Count, r.Hists)
		}
		if q := r.Hists["cluster.compute_ns"]; q.Count == 0 {
			t.Errorf("record %d (%s %s): no cluster.compute_ns observations", i, r.Engine, r.Algo)
		}
	}
}

func TestStreamQuick(t *testing.T) {
	out := runQuick(t, "stream")
	for _, frag := range []string{"epoch stream", "Ingest", "Stale inc", "Stale full", "epoch persistence"} {
		if !strings.Contains(out, frag) {
			t.Errorf("stream output missing %q:\n%s", frag, out)
		}
	}
	// Conformance is checked inside the experiment: any divergence between
	// an incremental refresh and the full recompute shows in the table.
	if strings.Contains(out, "DIFFERS") || strings.Contains(out, "MISMATCH") {
		t.Errorf("incremental refresh diverged from full recompute:\n%s", out)
	}
	// A custom batch count must be honored.
	var buf bytes.Buffer
	if err := Run("stream", Options{Out: &buf, Quick: true, Deltas: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 batches") {
		t.Errorf("-deltas override ignored:\n%s", buf.String())
	}
}

func TestFaultTolCustomPlan(t *testing.T) {
	var buf bytes.Buffer
	err := Run("faulttol", Options{Out: &buf, Quick: true, Iterations: 2,
		Faults: "crash@2:n1,slow@0-3:n0x2", CkptInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "crash@2:n1") {
		t.Errorf("custom plan not used:\n%s", out)
	}
	if err := Run("faulttol", Options{Out: &buf, Quick: true, Iterations: 2,
		Faults: "bogus@@"}); err == nil {
		t.Error("bad -faults spec should error")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "-",
		5e-7:   "1µs",
		0.0025: "2.50ms",
		1.5:    "1.5s",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want && in != 5e-7 {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatSeconds(5e-7); !strings.HasSuffix(got, "µs") {
		t.Errorf("formatSeconds(5e-7) = %q", got)
	}
}

func TestIsSquare(t *testing.T) {
	squares := map[int]bool{1: true, 4: true, 9: true, 16: true, 2: false, 8: false, 12: false}
	for n, want := range squares {
		if isSquare(n) != want {
			t.Errorf("isSquare(%d) = %v", n, !want)
		}
	}
}

// TestRunJSONAndTrace: with a tracer and JSON sink attached, Run emits a
// parseable machine report whose runs and trace summary are populated, and
// the tracer holds engine spans.
func TestRunJSONAndTrace(t *testing.T) {
	tr := trace.New()
	var table, js bytes.Buffer
	err := Run("table5", Options{Out: &table, Quick: true, Iterations: 2, Trace: tr, JSON: &js})
	if err != nil {
		t.Fatal(err)
	}

	var rep struct {
		Experiment string `json:"experiment"`
		Runs       []struct {
			Engine  string                   `json:"engine"`
			Algo    string                   `json:"algo"`
			Seconds float64                  `json:"seconds"`
			Hists   map[string]obs.Quantiles `json:"hists"`
		} `json:"runs"`
		Trace *trace.Summary `json:"trace"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, js.String())
	}
	if rep.Experiment != "table5" {
		t.Errorf("experiment = %q", rep.Experiment)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("JSON report has no runs")
	}
	// One seed under -quick: every engine runs every algorithm once, Native
	// (the baseline every ratio divides by) included.
	cells := map[string]int{}
	for _, r := range rep.Runs {
		if r.Engine == "" || r.Algo == "" {
			t.Errorf("incomplete run record %+v", r)
		}
		cells[r.Engine+"/"+r.Algo]++
	}
	if len(cells) != len(graphmaze.Engines())*len(Algos()) || len(rep.Runs) != len(cells) {
		t.Errorf("%d run records over %d engine/algorithm cells, want one each of %d: %v",
			len(rep.Runs), len(cells), len(graphmaze.Engines())*len(Algos()), cells)
	}
	if rep.Trace == nil {
		t.Fatal("JSON report missing trace summary")
	}
	if rep.Trace.Spans == 0 {
		t.Error("trace summary has no spans")
	}
	if q := rep.Trace.Metrics.Histograms["harness.run.dur_ns"]; q.Count != int64(len(rep.Runs)) {
		t.Errorf("trace summary harness.run.dur_ns count = %d, want one per run (%d)", q.Count, len(rep.Runs))
	}
	if rep.Trace.Metrics.Counters["giraph.messages"] <= 0 {
		t.Errorf("trace summary counters carry no giraph.messages: %v", rep.Trace.Metrics.Counters)
	}
	if _, ok := rep.Trace.Metrics.Gauges["backend.pool.workers"]; !ok {
		t.Errorf("trace summary gauges carry no backend.pool.workers: %v", rep.Trace.Metrics.Gauges)
	}

	// Per-run histogram deltas: every traced run wraps itself in a
	// harness.run span, so at minimum its own duration histogram must
	// appear in the run's quantile map with exactly the observations this
	// run added (table5 runs one engine execution per record).
	for _, r := range rep.Runs {
		q, ok := r.Hists["harness.run.dur_ns"]
		if !ok {
			t.Errorf("%s/%s run record missing harness.run.dur_ns quantiles: %v", r.Engine, r.Algo, r.Hists)
			continue
		}
		if q.Count != 1 || q.P50 <= 0 || q.Max < q.P50 {
			t.Errorf("%s/%s harness.run quantiles implausible: %+v", r.Engine, r.Algo, q)
		}
	}

	// Every run is wrapped in a harness.run span, and the engines under
	// table5 each contribute their own span category.
	cats := map[string]bool{}
	for _, ev := range tr.Events() {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"harness.run", "giraph.superstep", "graphlab.sweep", "combblas.spmv", "galois.round", "socialite.rule"} {
		if !cats[want] {
			t.Errorf("trace missing %q spans (have %v)", want, cats)
		}
	}

	// The Chrome exporter accepts the whole trace.
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome trace is empty")
	}
}

func TestFormatTable(t *testing.T) {
	reports := []cluster.Report{
		{CPUUtilization: 0.9, PeakNetworkBandwidth: 5e9, BytesSent: 100, MemoryFootprintBytes: 10, MemoryPerNode: 100},
		{CPUUtilization: 0.1, PeakNetworkBandwidth: 0.5e9, BytesSent: 400, MemoryFootprintBytes: 50, MemoryPerNode: 100},
	}
	out := formatTable([]string{"native", "giraph"}, reports, 5.5e9)
	if !strings.Contains(out, "native") || !strings.Contains(out, "giraph") {
		t.Fatalf("table missing rows: %q", out)
	}
	if !strings.Contains(out, "100.0") { // giraph sends the max bytes
		t.Errorf("table missing normalized 100%% row: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("table has %d lines, want header + 2 rows", len(lines))
	}
}

// TestFormatTableZeroReference: a zero reference bandwidth must not divide
// by zero — the bandwidth column reads 0.
func TestFormatTableZeroReference(t *testing.T) {
	out := formatTable([]string{"x"}, []cluster.Report{{PeakNetworkBandwidth: 5e9}}, 0)
	if !strings.Contains(out, "x") {
		t.Fatalf("table missing row: %q", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("zero-reference table produced Inf/NaN: %q", out)
	}
}

// TestFormatTableEmpty: no reports yields just the header.
func TestFormatTableEmpty(t *testing.T) {
	out := formatTable(nil, nil, 1e9)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "framework") {
		t.Errorf("empty table = %q", out)
	}
}

// TestFormatTableMissingLabels: more reports than labels must not panic;
// unlabeled rows get a placeholder.
func TestFormatTableMissingLabels(t *testing.T) {
	out := formatTable([]string{"only"}, []cluster.Report{{}, {}}, 1e9)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[2], "?") {
		t.Errorf("unlabeled row = %q, want ? placeholder", lines[2])
	}
}
