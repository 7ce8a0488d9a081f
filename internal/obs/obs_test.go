package obs

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	if r.Hist("h") != r.Hist("h") {
		t.Fatal("Hist not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	r.Gauge("g").Set(3)
	if v := r.Gauge("g").Value(); v != 3 {
		t.Fatalf("gauge = %v", v)
	}
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("Counter not idempotent")
	}
	r.Counter("c").Add(1)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 1 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	// Snapshot sections are sorted by name.
	r.Hist("a").Record(0, 1)
	s = r.Snapshot()
	if len(s.Hists) != 2 || s.Hists[0].Name != "a" || s.Hists[1].Name != "h" {
		t.Fatalf("hist order: %+v", s.Hists)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Hist("x") != nil || r.Gauge("x") != nil || r.Counter("x") != nil {
		t.Fatal("nil registry returned live handles")
	}
	if r.Snapshot() != nil || r.HistSnapshots() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if StartSampler(nil, time.Millisecond) != nil {
		t.Fatal("sampler on nil registry")
	}
	var s *Sampler
	s.Stop() // must not panic
	var srv *Server
	if srv.Addr() != "" || srv.Close() != nil {
		t.Fatal("nil server misbehaved")
	}
}

func TestSamplerPublishesRuntimeStats(t *testing.T) {
	r := NewRegistry()
	s := StartSampler(r, 10*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	snap := r.Snapshot()
	got := map[string]float64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	if got["runtime.heap_alloc_bytes"] <= 0 {
		t.Fatalf("heap_alloc gauge missing: %+v", got)
	}
	if got["runtime.goroutines"] < 1 {
		t.Fatalf("goroutine gauge missing: %+v", got)
	}
	if got["runtime.gomaxprocs"] < 1 {
		t.Fatalf("gomaxprocs gauge missing: %+v", got)
	}
}

// TestSamplerRecordsEachNewGCPause: a sample feeds the pause histogram
// exactly the pauses of the GCs it consumed — GC number g sits at
// PauseNs[(g+255)%256] — so its count and sum match the runtime's ring.
func TestSamplerRecordsEachNewGCPause(t *testing.T) {
	s := &Sampler{reg: NewRegistry()}
	s.sampleOnce()
	h := s.reg.Hist("runtime.gc_pause_ns")
	before, first := h.Snapshot(), s.lastNumGC
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	s.sampleOnce()
	last := s.lastNumGC
	if last-first < 3 {
		t.Fatalf("sampler consumed GCs %d..%d, want at least 3", first, last)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var want int64
	for g := first + 1; g <= last; g++ {
		want += int64(m.PauseNs[(g+255)%256])
	}
	got := h.Snapshot().Sub(before)
	if got.Count != int64(last-first) || got.Sum != want {
		t.Fatalf("pause histogram recorded count %d sum %d ns, want count %d sum %d ns",
			got.Count, got.Sum, last-first, want)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Hist("e2e.dur_ns").Record(0, 1234)
	r.Gauge("e2e.gauge").Set(1)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "graphmaze_e2e_dur_ns_count 1") {
		t.Fatalf("/metrics output:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"e2e.dur_ns"`) {
		t.Fatalf("/metrics.json output:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("pprof cmdline empty")
	}
	if out := get("/"); !strings.Contains(out, "/metrics") {
		t.Fatalf("index output: %q", out)
	}
}

func TestProfileCapture(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing/empty: %v", err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(heap); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing/empty: %v", err)
	}
}
