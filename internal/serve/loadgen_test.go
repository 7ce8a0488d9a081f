package serve

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestRunLoadRequestCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL,
		Graphs: []GraphTarget{
			{Name: "social", Symmetric: true},
			{Name: "web"},
		},
		Concurrency: 4,
		Tenants:     4,
		Requests:    200,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Requests != 200 {
		t.Errorf("Requests = %d, want exactly 200 (request cap)", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("Errors = %d, want 0", rep.Errors)
	}
	// Totals reconcile: every issued request is a completed query, a
	// shed, or an error.
	if got := rep.Hits + rep.Misses + rep.Shed + rep.Errors; got != rep.Requests {
		t.Errorf("hits+misses+shed+errors = %d, want %d", got, rep.Requests)
	}
	if rep.QPS <= 0 {
		t.Errorf("QPS = %f, want > 0", rep.QPS)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("latency summary implausible: p50 %v p99 %v", rep.P50, rep.P99)
	}
	// The catalog is finite and Zipf-skewed, so 200 requests must produce
	// cache hits.
	if rep.Hits == 0 {
		t.Error("no cache hits in 200 skewed requests")
	}
	if len(rep.PerKind) == 0 {
		t.Error("PerKind empty")
	}
	for kind, kr := range rep.PerKind {
		if kr.Count <= 0 || kr.P50 <= 0 {
			t.Errorf("kind %s: implausible report %+v", kind, kr)
		}
	}
}

func TestRunLoadWithMutator(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// The duration is not a multiple of the cadence: a delta posted on the
	// tick that coincides with the deadline is applied by the server but
	// cancelled for the client, and the epoch check below would be off by
	// one.
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:       ts.URL,
		Graphs:        []GraphTarget{{Name: "social", Symmetric: true}},
		Concurrency:   2,
		Duration:      375 * time.Millisecond,
		DeltaInterval: 50 * time.Millisecond,
		DeltaEdges:    4,
		Seed:          3,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Deltas == 0 {
		t.Error("mutator applied no deltas in 375ms at 50ms cadence")
	}
	if v, _ := s.Graph("social"); uint64(v.Epoch()) != uint64(rep.Deltas) {
		t.Errorf("graph epoch %d != applied deltas %d", v.Epoch(), rep.Deltas)
	}
	if rep.Errors != 0 {
		t.Errorf("Errors = %d, want 0", rep.Errors)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{}); err == nil {
		t.Error("RunLoad without BaseURL/Graphs should fail")
	}
}

func TestLoadReportFormat(t *testing.T) {
	rep := &LoadReport{
		Duration: time.Second, Requests: 100, Hits: 60, Misses: 30, Shed: 10,
		QPS: 100, P50: time.Millisecond, P99: 5 * time.Millisecond,
		PerKind: map[string]KindReport{"cc": {Count: 90, P50: time.Millisecond, P99: 2 * time.Millisecond}},
	}
	if r := rep.HitRate(); r < 0.66 || r > 0.67 {
		t.Errorf("HitRate = %f, want 60/90", r)
	}
	if r := rep.ShedRate(); r != 0.1 {
		t.Errorf("ShedRate = %f, want 0.1", r)
	}
	var buf strings.Builder
	rep.Format(&buf)
	for _, want := range []string{"100 requests", "hit rate", "shed", "cc"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}
