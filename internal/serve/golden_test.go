package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The response golden pins the service's exact bytes: every query kind on
// the fixed-seed social/web test graphs, at epoch 0 and after one fixed
// /delta per graph. TestCacheByteIdentity proves hit ≡ miss ≡ bypass
// within one build; this file proves the bytes do not move between
// builds, which is what lets a kernel refactor claim "cached responses
// unchanged".
//
// Regenerate (only when an intentional response change lands) with:
//
//	GRAPHMAZE_WRITE_GOLDEN=1 go test -run TestResponseGolden ./internal/serve

const responseGoldenPath = "testdata/responses.golden.json"

// goldenDeltas is the one fixed batch each graph ingests between the two
// captures: duplicate edges, a self loop, edges closing new triangles and
// edges that grow the 128-vertex space.
var goldenDeltas = []string{
	`{"graph":"social","edges":[[1,2],[5,9],[9,5],[7,7],[3,64],[64,100],[100,3],[12,130],[130,131]]}`,
	`{"graph":"web","edges":[[1,2],[2,1],[4,4],[0,77],[77,90],[90,0],[15,129],[129,15]]}`,
}

// goldenPaths extends the byte-identity query set with the default
// PageRank spelling, an early-stopping run on the symmetrized graph, and a
// directed BFS whose source reaches most of the graph (vertex 1 of web
// reaches only itself).
func goldenPaths() []string {
	return append(queryPaths(),
		"/query/pagerank?graph=social",
		"/query/pagerank?graph=social&iters=200&tol=1e-9&k=3",
		"/query/bfs?graph=web&source=2",
	)
}

// responseGolden maps "epoch0"/"epoch1" to path → exact response body.
type responseGolden map[string]map[string]string

func captureResponses(t *testing.T) responseGolden {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	capture := func() map[string]string {
		out := make(map[string]string)
		for _, path := range goldenPaths() {
			code, _, body := get(t, ts.URL+path, nil)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d (body %s)", path, code, body)
			}
			out[path] = string(body)
		}
		return out
	}
	got := responseGolden{"epoch0": capture()}
	postGoldenDeltas(t, ts.URL)
	got["epoch1"] = capture()
	return got
}

// postGoldenDeltas ingests goldenDeltas, advancing both graphs one epoch.
func postGoldenDeltas(t *testing.T, baseURL string) {
	t.Helper()
	for _, delta := range goldenDeltas {
		resp, err := http.Post(baseURL+"/delta", "application/json", strings.NewReader(delta))
		if err != nil {
			t.Fatalf("POST /delta: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /delta %s: status %d", delta, resp.StatusCode)
		}
	}
}

func TestResponseGolden(t *testing.T) {
	var want responseGolden
	write := os.Getenv("GRAPHMAZE_WRITE_GOLDEN") != ""
	if !write {
		data, err := os.ReadFile(responseGoldenPath)
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoding golden: %v", err)
		}
	}
	for _, procs := range []int{1, 3, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := captureResponses(t)
		runtime.GOMAXPROCS(prev)
		if want == nil {
			// Write mode: the first capture becomes the golden, later
			// worker counts must reproduce it.
			want = got
		}
		for epoch, bodies := range want {
			if len(got[epoch]) != len(bodies) {
				t.Errorf("GOMAXPROCS=%d %s: %d responses, golden has %d", procs, epoch, len(got[epoch]), len(bodies))
			}
			for path, body := range bodies {
				if got[epoch][path] != body {
					t.Errorf("GOMAXPROCS=%d %s %s:\n got %q\nwant %q", procs, epoch, path, got[epoch][path], body)
				}
			}
		}
	}
	if write && !t.Failed() {
		data, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responseGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", responseGoldenPath)
	}
}
