package graphmaze

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The golden conformance suite pins every single-node engine's PageRank
// and BFS outputs bit-for-bit: PageRank ranks are stored as float64 bit
// patterns, BFS distances as plain ints. The fixtures were captured from
// the pre-backend-refactor engines, so any lowering onto the shared SpMV
// backend must reproduce the original arithmetic exactly — same fold
// order per row, same finishing expression — and must do so at every
// GOMAXPROCS setting.
//
// Regenerate (only when an intentional numeric change lands) with:
//
//	GRAPHMAZE_WRITE_GOLDEN=1 go test -run TestGoldenEngineOutputs .

const goldenPath = "testdata/golden_engine_outputs.json"

// goldenEngines lists the engines whose outputs are pinned: all but
// Galois. SociaLite's PageRank is a fixed per-row fold (each key's seed,
// then its in-neighbours' contributions in ascending order) since its rule
// lowers onto the backend's seeded SpMV.
var goldenEngines = []string{"Native", "CombBLAS", "GraphLab", "SociaLite", "Giraph"}

type goldenFile struct {
	// Ranks maps engine name to PageRank ranks as hex float64 bits.
	Ranks map[string][]string `json:"pagerank_bits"`
	// Dists maps engine name to BFS distances.
	Dists map[string][]int32 `json:"bfs_distances"`
}

func goldenInputs(t testing.TB) (*Graph, *Graph) {
	t.Helper()
	pr, err := Generate(Graph500{Scale: 11, EdgeFactor: 8, Seed: 9}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := Generate(Graph500{Scale: 11, EdgeFactor: 8, Seed: 9}, ForBFS)
	if err != nil {
		t.Fatal(err)
	}
	return pr, bfs
}

func goldenEngine(t testing.TB, name string) Engine {
	t.Helper()
	for _, eng := range Engines() {
		if eng.Name() == name {
			return eng
		}
	}
	t.Fatalf("no engine named %q", name)
	return nil
}

func captureOutputs(t testing.TB, prG, bfsG *Graph) *goldenFile {
	t.Helper()
	out := &goldenFile{Ranks: map[string][]string{}, Dists: map[string][]int32{}}
	for _, name := range goldenEngines {
		eng := goldenEngine(t, name)
		pr, err := eng.PageRank(prG, PageRankOptions{Iterations: 10, RandomJump: 0.3})
		if err != nil {
			t.Fatalf("%s PageRank: %v", name, err)
		}
		bits := make([]string, len(pr.Ranks))
		for i, r := range pr.Ranks {
			bits[i] = fmt.Sprintf("%016x", math.Float64bits(r))
		}
		out.Ranks[name] = bits
		bfs, err := eng.BFS(bfsG, BFSOptions{Source: 1})
		if err != nil {
			t.Fatalf("%s BFS: %v", name, err)
		}
		out.Dists[name] = bfs.Distances
	}
	return out
}

func TestGoldenEngineOutputs(t *testing.T) {
	prG, bfsG := goldenInputs(t)

	if os.Getenv("GRAPHMAZE_WRITE_GOLDEN") != "" {
		got := captureOutputs(t, prG, bfsG)
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with GRAPHMAZE_WRITE_GOLDEN=1): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	// The outputs must be bit-identical at every worker count, not just
	// the one the fixture was captured at.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 4} {
		runtime.GOMAXPROCS(procs)
		got := captureOutputs(t, prG, bfsG)
		for _, name := range goldenEngines {
			if w, g := want.Ranks[name], got.Ranks[name]; !equalStrings(w, g) {
				t.Errorf("GOMAXPROCS=%d %s: PageRank ranks differ from golden (first diff at %d)",
					procs, name, firstDiff(w, g))
			}
			w, g := want.Dists[name], got.Dists[name]
			if len(w) != len(g) {
				t.Errorf("GOMAXPROCS=%d %s: BFS distance count %d, want %d", procs, name, len(g), len(w))
				continue
			}
			for i := range w {
				if w[i] != g[i] {
					t.Errorf("GOMAXPROCS=%d %s: BFS dist[%d] = %d, want %d", procs, name, i, g[i], w[i])
					break
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
