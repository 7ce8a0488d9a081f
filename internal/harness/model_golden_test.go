package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"graphmaze/internal/cluster"
)

// The model golden pins every modelled output of the simulated cluster:
// each cluster.Report that a multi-node experiment records at -quick,
// field by field. Traffic, memory and checkpoint sizes come from the
// engines' accounting and the comm-layer and checkpoint cost models, not
// from a host clock, so they must be identical at every GOMAXPROCS
// setting and in every run. The measured fields (host compute time and
// what it feeds) are range-checked only.
//
// Regenerate (only when an intentional model change lands) with:
//
//	GRAPHMAZE_WRITE_GOLDEN=1 go test -run TestModelGolden ./internal/harness

const modelGoldenPath = "testdata/model_golden.json"

// modelExperiments are the experiments that run engines on a simulated
// cluster.
var modelExperiments = []string{"fig4", "fig5", "fig6", "table6", "table7", "faulttol", "giraphsplit", "giraphfix"}

// modelled is the part of a cluster.Report the model determines; its
// field names are the Report's.
type modelled struct {
	Nodes                int
	BytesSent            int64
	MessagesSent         int64
	PeakNetworkBandwidth float64
	NetworkSeconds       float64
	MemoryFootprintBytes int64
	MemoryPerNode        int64
	CheckpointSeconds    float64
	CheckpointBytes      int64
	Checkpoints          int
	Recoveries           int
	FailedPhases         int
	ReplayedPhases       int
}

func modelledOf(r *cluster.Report) modelled {
	return modelled{
		Nodes:                r.Nodes,
		BytesSent:            r.BytesSent,
		MessagesSent:         r.MessagesSent,
		PeakNetworkBandwidth: r.PeakNetworkBandwidth,
		NetworkSeconds:       r.NetworkSeconds,
		MemoryFootprintBytes: r.MemoryFootprintBytes,
		MemoryPerNode:        r.MemoryPerNode,
		CheckpointSeconds:    r.CheckpointSeconds,
		CheckpointBytes:      r.CheckpointBytes,
		Checkpoints:          r.Checkpoints,
		Recoveries:           r.Recoveries,
		FailedPhases:         r.FailedPhases,
		ReplayedPhases:       r.ReplayedPhases,
	}
}

// captureModel runs every model experiment at -quick and returns each
// recorded report's modelled fields, keyed "experiment/record engine algo
// N-node".
func captureModel(t *testing.T) map[string]modelled {
	t.Helper()
	out := map[string]modelled{}
	for _, id := range modelExperiments {
		var js bytes.Buffer
		if err := Run(id, Options{Out: io.Discard, Quick: true, JSON: &js}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var rep jsonReport
		if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
			t.Fatalf("%s: decode JSON report: %v", id, err)
		}
		for i, r := range rep.Runs {
			if id == "fig6" && r.Nodes == 4 && r.Report == nil {
				t.Errorf("fig6 record %d (%s %s) carries no report: %s", i, r.Engine, r.Algo, r.Error)
			}
			if r.Report == nil {
				continue
			}
			key := fmt.Sprintf("%s/%03d %s %s %d-node", id, i, r.Engine, r.Algo, r.Nodes)
			checkMeasured(t, key, r.Report)
			out[key] = modelledOf(r.Report)
		}
	}
	return out
}

// checkMeasured range-checks the fields a host clock feeds: a run takes
// simulated time, and its CPU utilization is a fraction of the
// provisioned threads. Figure 6 needs traffic and memory on every run.
func checkMeasured(t *testing.T, key string, r *cluster.Report) {
	t.Helper()
	if r.SimulatedSeconds <= 0 {
		t.Errorf("%s: SimulatedSeconds = %v, want > 0", key, r.SimulatedSeconds)
	}
	if r.CPUUtilization <= 0 || r.CPUUtilization > 1 {
		t.Errorf("%s: CPUUtilization = %v, want in (0, 1]", key, r.CPUUtilization)
	}
	if r.BytesSent <= 0 || r.MemoryFootprintBytes <= 0 {
		t.Errorf("%s: BytesSent = %d, MemoryFootprintBytes = %d, want both > 0", key, r.BytesSent, r.MemoryFootprintBytes)
	}
}

func TestModelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("eight experiments twice take over 10 s under -race; covered by the non-short run")
	}
	if os.Getenv("GRAPHMAZE_WRITE_GOLDEN") != "" {
		data, err := json.MarshalIndent(captureModel(t), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(modelGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", modelGoldenPath)
		return
	}

	data, err := os.ReadFile(modelGoldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with GRAPHMAZE_WRITE_GOLDEN=1): %v", err)
	}
	var want map[string]modelled
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		for _, d := range diffModel(want, captureModel(t)) {
			t.Errorf("GOMAXPROCS=%d %s", procs, d)
		}
	}
}

// diffModel lists every record missing from either side and every field
// that differs, naming the experiment, the record and the field.
func diffModel(want, got map[string]modelled) []string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		switch {
		case !inGot:
			diffs = append(diffs, k+": record missing from the run")
		case !inWant:
			diffs = append(diffs, k+": record not in the golden")
		default:
			wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
			for i := 0; i < wv.NumField(); i++ {
				if wf, gf := wv.Field(i).Interface(), gv.Field(i).Interface(); wf != gf {
					diffs = append(diffs, fmt.Sprintf("%s: %s = %v, golden %v", k, wv.Type().Field(i).Name, gf, wf))
				}
			}
		}
	}
	return diffs
}
