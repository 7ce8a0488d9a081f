package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// goldenSnapshot builds a fully deterministic registry: fixed counter
// values, gauges, and histogram contents.
func goldenSnapshot() *Snapshot {
	r := NewRegistry()
	r.Counter("par.items").Add(4096)
	r.Counter("giraph.messages").Add(123)
	r.Gauge("backend.pool.busy_frac").Set(0.75)
	r.Gauge("runtime.goroutines").Set(9)
	h := r.Hist("native.pr.iter.dur_ns")
	for _, v := range []int64{0, 1, 3, 4, 7, 100, 1000, 1000, 65536, 1 << 20} {
		h.Record(0, v)
	}
	return r.Snapshot()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenSnapshot(), "graphmaze"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Structural checks that hold even when the golden is regenerated.
	for _, want := range []string{
		"# TYPE graphmaze_par_items_total counter",
		"graphmaze_par_items_total 4096",
		"# TYPE graphmaze_backend_pool_busy_frac gauge",
		"graphmaze_backend_pool_busy_frac 0.75",
		"# TYPE graphmaze_native_pr_iter_dur_ns histogram",
		`graphmaze_native_pr_iter_dur_ns_bucket{le="+Inf"} 10`,
		"graphmaze_native_pr_iter_dur_ns_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "graphmaze_native_pr_iter_dur_ns_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative counts decreased at %q", line)
		}
		last = v
	}
	checkGolden(t, "exposition.golden.prom", buf.Bytes())
}

func TestJSONExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Must be valid JSON with the three sections and a sane p50.
	var dec struct {
		Counters   map[string]int64     `json:"counters"`
		Gauges     map[string]float64   `json:"gauges"`
		Histograms map[string]Quantiles `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if dec.Counters["par.items"] != 4096 {
		t.Fatalf("counters: %+v", dec.Counters)
	}
	q := dec.Histograms["native.pr.iter.dur_ns"]
	if q.Count != 10 || q.Max != 1<<20 {
		t.Fatalf("hist summary: %+v", q)
	}
	checkGolden(t, "exposition.golden.json", buf.Bytes())
}

func TestWriteJSONNilSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil snapshot JSON = %q", buf.String())
	}
	if err := WritePrometheus(&buf, nil, "x"); err != nil {
		t.Fatal(err)
	}
}
