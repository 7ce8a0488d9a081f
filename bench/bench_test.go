package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// finalLine parses the last line a report prints: the object the driver
// reads.
func finalLine(t *testing.T, rep *report) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var final struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if final.Attempted < 1 || final.Failed != rep.Failed {
		t.Fatalf("attempted %d, failed %d, report has %d failed", final.Attempted, final.Failed, rep.Failed)
	}
	return final.Correct, final.Metrics
}

// TestSmoke runs every workload once, in process and small, and holds the
// printed names to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	sz := smokeSizing()
	probe, tr, err := runProbe(1, sz)
	if err != nil {
		t.Fatal(err)
	}
	if rows := tr.reduce(); len(rows) == 0 || rows[0].SelfMs <= 0 {
		t.Fatalf("probe span table is empty or unranked: %v", rows)
	}
	for _, w := range workloadNames {
		untraced, err := runPass(passOpts{workload: w, seed: 1, sz: sz})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		traced, err := runPass(passOpts{workload: w, seed: 1, sz: sz, tr: newTracer()})
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if len(traced.Layers) == 0 {
			t.Errorf("%s: traced pass has no span table", w)
		}
		for _, traceOn := range []bool{false, true} {
			cfg := runConfig{workloads: []string{w}, trace: traceOn}
			rep := assemble(cfg, map[string][]*passResult{w: {untraced.atNominalHost(), traced.atNominalHost()}},
				&childResult{Probe: probe, Pass: &passResult{}})
			correct, metrics := finalLine(t, rep)
			if !correct {
				t.Errorf("%s: checks failed: %v", w, rep.Workloads[0].Notes)
			}
			if len(metrics) != len(want[traceOn]) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json has %d", w, traceOn, len(metrics), len(want[traceOn]))
			}
			for name, m := range metrics {
				if unit, ok := want[traceOn][name]; !ok || unit != m.Unit {
					t.Errorf("%s: printed %s [%s], BENCHMARK.json has unit %q (present %v)", w, name, m.Unit, unit, ok)
				}
				// Differences of two measured medians may come out
				// negative; everything else is a time, a size or a count.
				signed := name == "trace.overhead_frac" || strings.HasPrefix(name, "serve.miss_self_ms.")
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !signed) {
					t.Errorf("%s: %s = %v", w, name, m.Value)
				}
				if !traceOn && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, name)
				}
			}
		}
	}
}

// corruptNth returns a handler wrapper that replaces the first byte of the
// n-th response body.
func corruptNth(n int64) func(http.Handler) http.Handler {
	var served atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) == n {
				w = &corruptingWriter{ResponseWriter: w}
			}
			h.ServeHTTP(w, r)
		})
	}
}

type corruptingWriter struct{ http.ResponseWriter }

func (c *corruptingWriter) Write(b []byte) (int, error) {
	bad := bytes.Clone(b)
	bad[0] = '['
	return c.ResponseWriter.Write(bad)
}

// TestCorruptedResponseCountsAsFailed serves one wrong body among the
// cache hits (past the warm-up's one request per target) and expects
// exactly that op to fail its check.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	res, err := runPass(passOpts{workload: wlHot, seed: 1, sz: smokeSizing(), fault: corruptNth(catalogSize + 5)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "body differs") {
		t.Fatalf("failed %d of %d, notes %v; want the one corrupted response", res.Failed, res.Attempted, res.Notes)
	}
	rep := assemble(runConfig{workloads: []string{wlHot}}, map[string][]*passResult{wlHot: {res}}, nil)
	if correct, _ := finalLine(t, rep); correct {
		t.Fatal("report with a failed op says correct")
	}
}
