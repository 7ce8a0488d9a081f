package graphmaze

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
)

// The conformance suite: every engine must enforce the shared input
// contract identically, so a user can swap engines without changing
// validation behaviour.

func conformanceInputs(t *testing.T) (*Graph, *Graph, *Graph, *Ratings) {
	t.Helper()
	pr, err := Generate(Graph500{Scale: 7, EdgeFactor: 6, Seed: 31}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := Generate(Graph500{Scale: 7, EdgeFactor: 6, Seed: 31}, ForBFS)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Generate(Graph500{Scale: 7, EdgeFactor: 6, Seed: 31}, ForTriangles)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := GenerateRatings(9, 16, 31)
	if err != nil {
		t.Fatal(err)
	}
	return pr, bfs, tc, cf
}

func TestConformanceRejectsBadOptions(t *testing.T) {
	pr, bfs, _, cf := conformanceInputs(t)
	for _, eng := range Engines() {
		t.Run(eng.Name(), func(t *testing.T) {
			if _, err := eng.PageRank(pr, PageRankOptions{RandomJump: 2}); err == nil {
				t.Error("accepted random jump > 1")
			}
			if _, err := eng.PageRank(pr, PageRankOptions{Iterations: -1}); err == nil {
				t.Error("accepted negative iterations")
			}
			if _, err := eng.BFS(bfs, BFSOptions{Source: bfs.NumVertices + 1}); err == nil {
				t.Error("accepted out-of-range BFS source")
			}
			if _, err := eng.CollabFilter(cf, CFOptions{K: -1}); err == nil {
				t.Error("accepted negative latent dimension")
			}
			if _, err := eng.CollabFilter(cf, CFOptions{StepDecay: 5}); err == nil {
				t.Error("accepted step decay > 1")
			}
		})
	}
}

func TestConformanceRejectsUnsortedTriangleInput(t *testing.T) {
	// Triangle counting requires the sorted acyclic preparation; a graph
	// built raw (NewGraph never sorts) must be rejected by every engine.
	g, err := Generate(Graph500{Scale: 6, EdgeFactor: 4, Seed: 33}, ForTriangles)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewGraph(g.NumVertices, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range Engines() {
		if _, err := eng.TriangleCount(raw, TriangleOptions{}); err == nil {
			t.Errorf("%s accepted unsorted adjacency", eng.Name())
		}
	}
}

func TestConformanceSingleNodeOnlyEngines(t *testing.T) {
	pr, bfs, tc, cf := conformanceInputs(t)
	exec := Exec{Cluster: &ClusterConfig{Nodes: 2}}
	for _, eng := range Engines() {
		caps := eng.Capabilities()
		_, prErr := eng.PageRank(pr, PageRankOptions{Iterations: 2, Exec: exec})
		_, bfsErr := eng.BFS(bfs, BFSOptions{Source: 0, Exec: exec})
		_, tcErr := eng.TriangleCount(tc, TriangleOptions{Exec: exec})
		_, cfErr := eng.CollabFilter(cf, CFOptions{K: 4, Iterations: 1, Exec: exec})
		if caps.MultiNode {
			for algo, err := range map[string]error{"pagerank": prErr, "bfs": bfsErr, "triangles": tcErr, "cf": cfErr} {
				// CombBLAS legitimately rejects non-square node counts.
				if err != nil && eng.Name() != "CombBLAS" {
					t.Errorf("%s %s: multi-node engine errored: %v", eng.Name(), algo, err)
				}
			}
		} else {
			for algo, err := range map[string]error{"pagerank": prErr, "bfs": bfsErr, "triangles": tcErr, "cf": cfErr} {
				if !errors.Is(err, core.ErrSingleNodeOnly) {
					t.Errorf("%s %s: expected ErrSingleNodeOnly, got %v", eng.Name(), algo, err)
				}
			}
		}
	}
}

func TestConformanceStatsPopulated(t *testing.T) {
	pr, _, _, _ := conformanceInputs(t)
	for _, eng := range Engines() {
		res, err := eng.PageRank(pr, PageRankOptions{Iterations: 3})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Stats.WallSeconds <= 0 {
			t.Errorf("%s: WallSeconds = %v", eng.Name(), res.Stats.WallSeconds)
		}
		if res.Stats.Iterations <= 0 {
			t.Errorf("%s: Iterations = %d", eng.Name(), res.Stats.Iterations)
		}
		if res.Stats.Simulated {
			t.Errorf("%s: single-node run marked simulated", eng.Name())
		}
	}
}

// referenceInput is one input set of the reference table: a graph per
// algorithm, the BFS source, the ratings, and the serial reference's
// answer on each.
type referenceInput struct {
	name        string
	pr, bfs, tc *Graph
	source      uint32
	cf          *Ratings
	wantPR      []float64
	wantBFS     []int32
	wantTC      int64
	wantGD      *CFResult
}

const referenceIterations = 5

// referenceCF is the CF run every cell makes, with the method set per cell.
var referenceCF = CFOptions{K: 8, Iterations: 4, Seed: 7}

// referenceInputs are the table's inputs: scale-10 RMATs and ratings from
// seeds 42–45 (one per algorithm), then scale-7 RMATs from each of seeds
// 100–105 with the BFS source seed mod n, and scale-9 ratings from the
// same seed.
func referenceInputs(t *testing.T) []referenceInput {
	t.Helper()
	build := func(name string, scale, edgeFactor, tcEdgeFactor, cfScale int, seeds [4]int64, source func(n uint32) uint32) referenceInput {
		generate := func(seed int64, edgeFactor int, prep datasets.Prep) *Graph {
			g, err := Generate(Graph500{Scale: scale, EdgeFactor: edgeFactor, Seed: seed}, prep)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return g
		}
		in := referenceInput{
			name: name,
			pr:   generate(seeds[0], edgeFactor, ForPageRank),
			bfs:  generate(seeds[1], edgeFactor, ForBFS),
			tc:   generate(seeds[2], tcEdgeFactor, ForTriangles),
		}
		var err error
		if in.cf, err = GenerateRatings(cfScale, 16, seeds[3]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in.source = source(in.bfs.NumVertices)
		in.wantPR = core.RefPageRank(in.pr, PageRankOptions{Iterations: referenceIterations})
		in.wantBFS = core.RefBFS(in.bfs, in.source)
		in.wantTC = core.RefTriangleCount(in.tc)
		in.wantGD = core.RefCollabFilterGD(in.cf, referenceCF)
		return in
	}
	inputs := []referenceInput{build("scale10-seed42", 10, 16, 8, 10, [4]int64{42, 43, 44, 45}, func(uint32) uint32 { return 0 })}
	for seed := int64(100); seed < 106; seed++ {
		inputs = append(inputs, build(fmt.Sprintf("scale7-seed%d", seed), 7, 6, 6, 9,
			[4]int64{seed, seed, seed, seed}, func(n uint32) uint32 { return uint32(seed) % n }))
	}
	return inputs
}

// referenceCells are the table's algorithms. Each runs its engine on one
// input and checks the answer against the serial reference; the engine's
// own error is returned for the caller to judge.
var referenceCells = []struct {
	name string
	run  func(t *testing.T, e Engine, in *referenceInput, x Exec) (core.RunStats, error)
}{
	{"pagerank", func(t *testing.T, e Engine, in *referenceInput, x Exec) (core.RunStats, error) {
		res, err := e.PageRank(in.pr, PageRankOptions{Iterations: referenceIterations, Exec: x})
		if err != nil {
			return core.RunStats{}, err
		}
		tol := 1e-9
		if x.Cluster != nil && e.Name() == "Native" {
			tol = 1e-4 // its default tuning ships float32 contributions between nodes
		}
		if d := core.ComparePageRank(in.wantPR, res.Ranks); d > tol {
			t.Errorf("%s: max relative rank difference %g, bound %g", in.name, d, tol)
		}
		if res.Stats.Iterations != referenceIterations {
			t.Errorf("%s: %d iterations, want %d", in.name, res.Stats.Iterations, referenceIterations)
		}
		return res.Stats, nil
	}},
	{"bfs", func(t *testing.T, e Engine, in *referenceInput, x Exec) (core.RunStats, error) {
		res, err := e.BFS(in.bfs, BFSOptions{Source: in.source, Exec: x})
		if err != nil {
			return core.RunStats{}, err
		}
		if !core.EqualDistances(in.wantBFS, res.Distances) {
			t.Errorf("%s: distances differ from the reference", in.name)
		}
		if err := core.ValidateBFS(in.bfs, in.source, res.Distances); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
		return res.Stats, nil
	}},
	{"triangles", func(t *testing.T, e Engine, in *referenceInput, x Exec) (core.RunStats, error) {
		res, err := e.TriangleCount(in.tc, TriangleOptions{Exec: x})
		if err != nil {
			return core.RunStats{}, err
		}
		if res.Count != in.wantTC {
			t.Errorf("%s: %d triangles, want %d", in.name, res.Count, in.wantTC)
		}
		return res.Stats, nil
	}},
	{"cf-gd", referenceCFCell(GradientDescent)},
	{"cf-sgd", referenceCFCell(SGD)},
}

// referenceFactorTol bounds how far a gradient-descent cell's factors may
// stray from the serial reference's, element by element. Across every GD
// engine × {1, 4} nodes × input at GOMAXPROCS 1, 2, 3, 4 and 8 the largest
// difference measured was 1.19e-7, one float32 ulp at 1.
const referenceFactorTol = 1e-6

// referenceCFCell is the CF cell for one method. Any method's RMSE must
// never rise and must end below where it started; gradient descent's must
// also stay within 1e-3 of the serial reference's at every iteration, and
// its factors within referenceFactorTol of the reference's, because a
// wrong update can still lower the error.
func referenceCFCell(method core.CFMethod) func(*testing.T, Engine, *referenceInput, Exec) (core.RunStats, error) {
	return func(t *testing.T, e Engine, in *referenceInput, x Exec) (core.RunStats, error) {
		opt := referenceCF
		opt.Method, opt.Exec = method, x
		res, err := e.CollabFilter(in.cf, opt)
		if err != nil {
			return core.RunStats{}, err
		}
		rmse := res.RMSE
		if len(rmse) != opt.Iterations {
			t.Fatalf("%s: %d RMSE entries, want %d", in.name, len(rmse), opt.Iterations)
		}
		if !core.MonotonicallyNonIncreasing(rmse, 1e-3) || rmse[len(rmse)-1] >= rmse[0] {
			t.Errorf("%s: RMSE does not fall: %v", in.name, rmse)
		}
		if method == GradientDescent {
			for i, want := range in.wantGD.RMSE {
				if d := math.Abs(rmse[i] - want); d > 1e-3 {
					t.Errorf("%s: iteration %d RMSE %v, reference %v", in.name, i, rmse[i], want)
				}
			}
			for _, f := range []struct {
				side      string
				got, want []float32
			}{{"user", res.UserFactors, in.wantGD.UserFactors}, {"item", res.ItemFactors, in.wantGD.ItemFactors}} {
				if d := maxFactorDiff(f.got, f.want); d > referenceFactorTol {
					t.Errorf("%s: %s factors differ from the reference by up to %g, bound %g", in.name, f.side, d, referenceFactorTol)
				}
			}
		}
		return res.Stats, nil
	}
}

// maxFactorDiff is the largest element-wise |a−b| of two factor matrices,
// or +Inf if their shapes differ.
func maxFactorDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		worst = max(worst, math.Abs(float64(a[i])-float64(b[i])))
	}
	return worst
}

// TestEnginesMatchReference is the precondition of every comparison the
// paper's Tables 5 and 6 make: each engine × algorithm × {1 node, 4
// nodes} cell computes the serial reference's answer on every input, and
// reports the run it made. A cell the engine's capabilities rule out must
// say so with ErrSingleNodeOnly or ErrUnsupported.
func TestEnginesMatchReference(t *testing.T) {
	inputs := referenceInputs(t)
	for _, e := range Engines() {
		caps := e.Capabilities()
		for _, nodes := range []int{1, 4} {
			var x Exec
			if nodes > 1 {
				x.Cluster = &ClusterConfig{Nodes: nodes}
			}
			for _, c := range referenceCells {
				var ruledOut error
				switch {
				case nodes > 1 && !caps.MultiNode:
					ruledOut = core.ErrSingleNodeOnly
				case c.name == "cf-sgd" && !caps.SGD:
					ruledOut = core.ErrUnsupported
				}
				t.Run(fmt.Sprintf("%s/%d-node/%s", e.Name(), nodes, c.name), func(t *testing.T) {
					for i := range inputs {
						in := &inputs[i]
						stats, err := c.run(t, e, in, x)
						switch {
						case ruledOut != nil:
							if !errors.Is(err, ruledOut) {
								t.Fatalf("%s: err = %v, want %v", in.name, err, ruledOut)
							}
						case err != nil:
							t.Fatalf("%s: %v", in.name, err)
						case nodes > 1:
							if !stats.Simulated || stats.Report.Nodes != nodes || stats.Report.BytesSent <= 0 {
								t.Errorf("%s: cluster run reports simulated %v, %d nodes, %d bytes sent",
									in.name, stats.Simulated, stats.Report.Nodes, stats.Report.BytesSent)
							}
						default:
							if stats.Simulated || stats.WallSeconds <= 0 {
								t.Errorf("%s: single-node run reports simulated %v, %v s", in.name, stats.Simulated, stats.WallSeconds)
							}
						}
					}
				})
			}
		}
	}
}
