package socialite

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

// bfsRuleSrc is the paper's recursive BFS rule; weightedBFSRuleSrc adds a
// per-source step table, which keeps the lowerable shape but lets a test
// break the uniform-level guard mid-run.
const (
	bfsRuleSrc         = "BFS(t, $MIN(d)) :- BFS(s, d0), d = d0 + 1, EDGE(s, t)."
	weightedBFSRuleSrc = "BFS(t, $MIN(d)) :- BFS(s, d0), STEP(s, w), d = d0 + w, EDGE(s, t)."
)

// buildBFSRule compiles src over g's edge table with a fresh distance
// table seeded at source and a STEP table holding step[v] (1 when step is
// nil).
func buildBFSRule(t *testing.T, src string, edge *EdgeTable, source uint32, step map[uint32]float64) *Rule {
	t.Helper()
	dist := NewVecTable("BFS", edge.NumKeys())
	dist.Put(source, Scalar(0))
	stepTable := NewVecTable("STEP", edge.NumKeys())
	for v := uint32(0); v < edge.NumKeys(); v++ {
		w, ok := step[v]
		if !ok {
			w = 1
		}
		stepTable.Put(v, Scalar(w))
	}
	reg := NewRegistry()
	reg.Register(edge)
	reg.Register(dist)
	reg.Register(stepTable)
	rule, err := Parse(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// genericFixpoint is the reference driver: every round on EvalParallel.
// It returns each round's changed-key set, sorted.
func genericFixpoint(t *testing.T, rule *Rule, source uint32) [][]uint32 {
	t.Helper()
	var rounds [][]uint32
	for delta := []uint32{source}; len(delta) > 0; {
		stats, err := EvalParallel(rule, 0, rule.Head.Table.NumKeys(), delta, nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		delta = stats.Changed
		rounds = append(rounds, sortedCopy(delta))
	}
	return rounds
}

func sortedCopy(keys []uint32) []uint32 {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

func requireSameTuples(t *testing.T, what string, want, got *VecTable) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: stored tuple counts differ: generic %d, got %d", what, want.Len(), got.Len())
	}
	want.ForEach(func(k uint32, v Value) {
		gv, present := got.Get(k)
		if !present || gv.S() != v.S() {
			t.Fatalf("%s: key %d: generic %v, got %v (present=%v)", what, k, v, gv, present)
		}
	})
}

// fixpointFixtures are a symmetrized ("social") and a directed ("web")
// RMAT graph, large enough that hub frontiers cross the expander's serial
// cutover and dispatch on the pool.
func fixpointFixtures(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(12, 16, 55))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*graph.CSR)
	for name, o := range map[string]graph.Orientation{"social": graph.Symmetrize, "web": graph.KeepDirection} {
		b := graph.NewBuilder(1 << 12)
		b.AddEdges(edges)
		g, err := b.Build(graph.BuildOptions{Orientation: o, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

func maxDegreeVertex(g *graph.CSR) uint32 {
	best := uint32(0)
	for v := uint32(0); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// TestFixpointLoweredMatchesGeneric runs the recursive rule to fixpoint
// three ways — every round generic, every round through the lowering, and
// through the shared Fixpoint driver — and requires identical stored
// tuples, round counts and per-round changed-key sets, at 1 and 4
// workers.
func TestFixpointLoweredMatchesGeneric(t *testing.T) {
	for name, g := range fixpointFixtures(t) {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				pool := backend.NewPool(0)
				defer pool.Close()
				edge := NewEdgeTable("EDGE", g)
				source := maxDegreeVertex(g)

				genericRule := buildBFSRule(t, bfsRuleSrc, edge, source, nil)
				want := genericFixpoint(t, genericRule, source)

				loweredRule := buildBFSRule(t, bfsRuleSrc, edge, source, nil)
				low, ok := LowerBFSRule(pool, loweredRule)
				if !ok {
					t.Fatal("BFS rule did not lower")
				}
				delta, widest := []uint32{source}, 0
				for round := 0; len(delta) > 0; round++ {
					widest = max(widest, len(delta))
					if delta, ok = low.Round(delta); !ok {
						t.Fatalf("lowering fell back on round %d", round+1)
					}
					if round >= len(want) || !slices.Equal(sortedCopy(delta), want[round]) {
						t.Fatalf("round %d: lowered changed-key set differs from generic", round+1)
					}
				}
				if widest < 512 {
					t.Fatalf("widest frontier %d never left the expander's serial path", widest)
				}
				requireSameTuples(t, "lowered", genericRule.Head.Table, loweredRule.Head.Table)

				fixRule := buildBFSRule(t, bfsRuleSrc, edge, source, nil)
				rounds, err := Fixpoint(pool, fixRule)
				if err != nil {
					t.Fatal(err)
				}
				if rounds != len(want) {
					t.Fatalf("Fixpoint ran %d rounds, generic %d", rounds, len(want))
				}
				requireSameTuples(t, "Fixpoint", genericRule.Head.Table, fixRule.Head.Table)
			})
		}
	}
}

// TestFixpointFallsBackMidRun breaks the lowering's uniform-level guard
// after the first round (one depth-1 vertex steps by 2): Fixpoint must
// hand that round and the rest to the generic evaluator and still match
// an all-generic run.
func TestFixpointFallsBackMidRun(t *testing.T) {
	g := fixtureUndirected(t)
	edge := NewEdgeTable("EDGE", g)
	source := maxDegreeVertex(g)
	step := map[uint32]float64{g.Neighbors(source)[0]: 2}
	pool := backend.NewPool(0)
	defer pool.Close()

	genericRule := buildBFSRule(t, weightedBFSRuleSrc, edge, source, step)
	want := genericFixpoint(t, genericRule, source)

	probe := buildBFSRule(t, weightedBFSRuleSrc, edge, source, step)
	low, ok := LowerBFSRule(pool, probe)
	if !ok {
		t.Fatal("weighted BFS rule did not lower")
	}
	depth1, ok := low.Round([]uint32{source})
	if !ok {
		t.Fatal("first round must lower")
	}
	if _, ok := low.Round(depth1); ok {
		t.Fatal("second round mixes levels 2 and 3 and must not lower")
	}

	fixRule := buildBFSRule(t, weightedBFSRuleSrc, edge, source, step)
	rounds, err := Fixpoint(pool, fixRule)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != len(want) {
		t.Fatalf("Fixpoint ran %d rounds, generic %d", rounds, len(want))
	}
	requireSameTuples(t, "Fixpoint", genericRule.Head.Table, fixRule.Head.Table)
}

// TestLowerBFSRuleRejectsNonRecursive pins the shape checks: the PageRank
// rule (head table distinct from the driver, $SUM fold) must not lower.
func TestLowerBFSRuleRejectsNonRecursive(t *testing.T) {
	g := fixtureDirected(t)
	n := g.NumVertices
	outEdge := NewEdgeTable("OUTEDGE", g)
	outDeg := NewVecTable("OUTDEG", n)
	for v := uint32(0); v < n; v++ {
		outDeg.Put(v, Scalar(float64(g.Degree(v))))
	}
	rank := NewVecTable("RANK", n)
	reg := NewRegistry()
	reg.Register(outEdge)
	reg.Register(outDeg)
	reg.Register(rank)
	reg.Register(NewVecTable("RANK2", n))
	rule, err := Parse(fmt.Sprintf(
		"RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = (1-%g)*v0/d, OUTEDGE[s](n).", 0.3), reg)
	if err != nil {
		t.Fatal(err)
	}
	pool := backend.NewPool(1)
	defer pool.Close()
	if _, ok := LowerBFSRule(pool, rule); ok {
		t.Fatal("non-recursive $SUM rule must not lower")
	}
	if _, err := Fixpoint(pool, rule); err == nil {
		t.Fatal("Fixpoint accepted a non-recursive rule")
	}
}

// TestLoweredRoundFallsBackOnNonUniformDelta pins the runtime guard: a
// delta whose sources emit different head values must refuse to lower —
// without mutating the table — so the generic evaluator can re-run it.
func TestLoweredRoundFallsBackOnNonUniformDelta(t *testing.T) {
	g := fixtureUndirected(t)
	edge := NewEdgeTable("EDGE", g)
	rule := buildBFSRule(t, bfsRuleSrc, edge, 3, nil)
	// A second seed at a different depth makes the first delta non-uniform.
	rule.Head.Table.Put(5, Scalar(7))
	pool := backend.NewPool(1)
	defer pool.Close()
	low, ok := LowerBFSRule(pool, rule)
	if !ok {
		t.Fatal("BFS rule did not lower")
	}
	before := rule.Head.Table.Len()
	if _, ok := low.Round([]uint32{3, 5}); ok {
		t.Fatal("non-uniform delta must not lower")
	}
	if rule.Head.Table.Len() != before {
		t.Fatal("failed round mutated the head table")
	}
	if _, ok := low.Round([]uint32{3}); ok {
		t.Fatal("lowering must stay dead after a violation")
	}
}
