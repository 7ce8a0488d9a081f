package socialite

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
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
	dist.Put(source, 0)
	stepTable := NewVecTable("STEP", edge.NumKeys())
	for v := uint32(0); v < edge.NumKeys(); v++ {
		w, ok := step[v]
		if !ok {
			w = 1
		}
		stepTable.Put(v, w)
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

// genericFixpoint is the reference driver: every round on the sharded
// evaluator, run on a fresh rule from build at each of shardPoolSizes'
// worker counts. The runs must agree on every round's changed-key set and
// on the final tuples, bit for bit. It returns the first run's rule and
// its per-round changed-key sets, sorted.
func genericFixpoint(t *testing.T, build func() *Rule, source uint32) (*Rule, [][]uint32) {
	t.Helper()
	var first *Rule
	var want [][]uint32
	for _, workers := range shardPoolSizes {
		pool := newTestPool(t, workers)
		rule := build()
		var rounds [][]uint32
		for delta := []uint32{source}; len(delta) > 0; {
			stats, err := evalSharded(pool, rule, 0, rule.Head.Table.NumKeys(), delta, nil, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			delta = stats.Changed
			rounds = append(rounds, sortedCopy(delta))
		}
		if first == nil {
			first, want = rule, rounds
			continue
		}
		if !slices.EqualFunc(rounds, want, func(a, b []uint32) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%d workers: per-round changed-key sets differ from %d worker's", workers, shardPoolSizes[0])
		}
		requireSameBits(t, fmt.Sprintf("%d workers against %d", workers, shardPoolSizes[0]), first.Head.Table, rule.Head.Table)
	}
	return first, want
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
	want.ForEach(func(k uint32, v float64) {
		gv, present := got.Get(k)
		if !present || gv != v {
			t.Fatalf("%s: key %d: generic %v, got %v (present=%v)", what, k, v, gv, present)
		}
	})
}

// fixpointFixtures are a symmetrized ("social") and a directed ("web")
// RMAT graph, whose hub frontiers are wide enough for the level step to
// pull.
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
// workers. The lowered runs go over a plain edge table, whose levels all
// push, and over one given its in-edge view, whose wide levels pull.
func TestFixpointLoweredMatchesGeneric(t *testing.T) {
	for name, g := range fixpointFixtures(t) {
		in := backend.FromCSR(g)
		if name == "web" {
			in = backend.FromCSR(g.Transpose())
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				pool := par.NewPool(0)
				defer pool.Close()
				source := maxDegreeVertex(g)
				genericRule, want := genericFixpoint(t, func() *Rule { return buildBFSRule(t, bfsRuleSrc, NewEdgeTable("EDGE", g), source, nil) }, source)

				for _, edge := range []*EdgeTable{NewEdgeTable("EDGE", g), NewEdgeTable("EDGE", g).WithInEdges(in)} {
					what := fmt.Sprintf("in-edges=%v", edge.in != nil)
					loweredRule := buildBFSRule(t, bfsRuleSrc, edge, source, nil)
					low, ok := LowerBFSRule(pool, loweredRule)
					if !ok {
						t.Fatalf("%s: BFS rule did not lower", what)
					}
					delta := []uint32{source}
					for round := 0; len(delta) > 0; round++ {
						if delta, ok = low.Round(delta); !ok {
							t.Fatalf("%s: lowering fell back on round %d", what, round+1)
						}
						if round >= len(want) || !slices.Equal(sortedCopy(delta), want[round]) {
							t.Fatalf("%s: round %d: lowered changed-key set differs from generic", what, round+1)
						}
					}
					requireSameTuples(t, what+" lowered", genericRule.Head.Table, loweredRule.Head.Table)

					fixRule := buildBFSRule(t, bfsRuleSrc, edge, source, nil)
					rounds, err := Fixpoint(pool, fixRule)
					if err != nil {
						t.Fatal(err)
					}
					if rounds != len(want) {
						t.Fatalf("%s: Fixpoint ran %d rounds, generic %d", what, rounds, len(want))
					}
					requireSameTuples(t, what+" Fixpoint", genericRule.Head.Table, fixRule.Head.Table)
				}
			})
		}
	}
}

// TestFixpointFallsBackMidRun breaks the lowering's uniform-level guard
// after the first round (one depth-1 vertex steps by 2): Fixpoint must
// hand that round and the rest to the generic evaluator and still match
// an all-generic run. At 4 workers the sharded evaluator folds into the
// head it hands over concurrently (run it with -race).
func TestFixpointFallsBackMidRun(t *testing.T) {
	g := fixtureUndirected(t)
	edge := NewEdgeTable("EDGE", g)
	source := maxDegreeVertex(g)
	step := map[uint32]float64{g.Neighbors(source)[0]: 2}
	genericRule, want := genericFixpoint(t, func() *Rule { return buildBFSRule(t, weightedBFSRuleSrc, edge, source, step) }, source)

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := par.NewPool(0)
			defer pool.Close()

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
		})
	}
}

// TestFixpointAboveSerialCutover: the engine's lowered BFS rule on a graph
// above the backend's 2^19-edge serial cutover, where its wide rounds
// claim in parallel on the pool and come back in ascending order, must
// equal the serial reference BFS from the hub: the distances, and one
// round per level.
func TestFixpointAboveSerialCutover(t *testing.T) {
	edges, err := gen.RMAT(gen.Graph500Config(16, 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(1 << 16)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() <= 1<<19 {
		t.Fatalf("fixture: %d edges do not clear the serial cutover", g.NumEdges())
	}
	hub := uint32(0)
	for v := uint32(1); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	want := core.RefBFS(g, hub)
	res, err := New().BFS(g, core.BFSOptions{Source: hub})
	if err != nil {
		t.Fatal(err)
	}
	if !core.EqualDistances(want, res.Distances) || res.Stats.Iterations != int(slices.Max(want))+1 {
		t.Errorf("%d rounds, want %d; distances equal: %v", res.Stats.Iterations, int(slices.Max(want))+1, core.EqualDistances(want, res.Distances))
	}
}

// TestFixpointRoundBound: a recursive rule whose values never settle on a
// 3-vertex cycle stops with an error naming the rule and the round once
// its delta outlives NumKeys()+1 rounds, while BFS on an n-vertex path
// still converges, in n rounds.
func TestFixpointRoundBound(t *testing.T) {
	pool := newTestPool(t, 2)
	reach := func(g *graph.CSR, src string) *Rule {
		t.Helper()
		tbl := NewVecTable("REACH", g.NumVertices)
		tbl.Put(0, 0)
		reg := NewRegistry()
		reg.Register(NewEdgeTable("EDGE", g))
		reg.Register(tbl)
		rule, err := Parse(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		return rule
	}
	cycle, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"REACH[t]($SUM(d)) :- REACH[s](d0), d = d0 + 1, EDGE[s](t).",
		"REACH[t]($MIN(d)) :- REACH[s](d0), d = d0 - 1, EDGE[s](t).",
		"REACH[t]($SUM(d)) :- REACH[s](d0), d = 0 - d0, EDGE[s](t).",
	} {
		rounds, err := Fixpoint(pool, reach(cycle, src))
		if err == nil {
			t.Fatalf("%s: converged in %d rounds on a cycle", src, rounds)
		}
		if rounds != 4 || !strings.Contains(err.Error(), "rule REACH") || !strings.Contains(err.Error(), "round 4") {
			t.Errorf("%s: stopped after %d rounds with %q, want round 4 of rule REACH", src, rounds, err)
		}
	}

	const n = 10
	var edges []graph.Edge
	for v := uint32(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	path, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := Fixpoint(pool, reach(path, "REACH[t]($MIN(d)) :- REACH[s](d0), d = d0 + 1, EDGE[s](t)."))
	if err != nil || rounds != n {
		t.Fatalf("BFS on a %d-vertex path: %d rounds, %v; want %d rounds", n, rounds, err, n)
	}
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
	pool := par.NewPool(1)
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
	rule.Head.Table.Put(5, 7)
	pool := par.NewPool(1)
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

// sumRuleSrc is PageRank's shape with one more prefix atom: a keyed
// driver, a keyed prefix table, a scalar assignment and the trailing edge
// atom, folded with $SUM into a table that drives nothing.
const sumRuleSrc = "OUT[n]($SUM(v)) :- A[s](v0), B[s](d), v = 0.7*v0/d + v0, E[s](n)."

// sumTables describes one scenario's tables: which keys each holds (nil
// means every key) and what OUT is seeded with.
type sumTables struct {
	name           string
	aHas, bHas     func(k uint32) bool
	outHas         func(k uint32) bool
	lowers         bool
	negativeZeroes bool
}

// buildSumRule compiles sumRuleSrc over edge with fresh tables filled as
// sc prescribes. Values vary by key so that fold order shows in the bits.
func buildSumRule(t *testing.T, edge *EdgeTable, sc sumTables) *Rule {
	t.Helper()
	n := edge.NumKeys()
	a, b, out := NewVecTable("A", n), NewVecTable("B", n), NewVecTable("OUT", n)
	for k := uint32(0); k < n; k++ {
		if sc.aHas == nil || sc.aHas(k) {
			v := 1 / float64(k%97+3)
			if sc.negativeZeroes && k%5 == 0 {
				v = math.Copysign(0, -1)
			}
			a.Put(k, v)
		}
		if sc.bHas == nil || sc.bHas(k) {
			b.Put(k, float64(k%13+1))
		}
		if sc.outHas == nil || sc.outHas(k) {
			out.Put(k, 0.15+float64(k%7)*1e-3)
		}
	}
	reg := NewRegistry()
	for _, tab := range []Table{edge, a, b, out} {
		reg.Register(tab)
	}
	rule, err := Parse(sumRuleSrc, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// sameBits reports how two tables differ, if they do: they must hold the
// same keys with the same float64 bit patterns.
func sameBits(want, got *VecTable) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("%d tuples, want %d", got.Len(), want.Len())
	}
	var err error
	want.ForEach(func(k uint32, v float64) {
		gv, ok := got.Get(k)
		if err == nil && (!ok || math.Float64bits(gv) != math.Float64bits(v)) {
			err = fmt.Errorf("key %d: %v (present=%v), want %v", k, gv, ok, v)
		}
	})
	return err
}

func requireSameBits(t *testing.T, what string, want, got *VecTable) {
	t.Helper()
	if err := sameBits(want, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// handBuiltGraph has what RMAT at this size may not: isolated vertices
// (8, 9), sources nothing points at (10, 11), a sink with no out-edges
// (7) and a hub (0) every other vertex points at and that points back.
func handBuiltGraph(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for v := uint32(1); v < 7; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 0}, graph.Edge{Src: 0, Dst: v}, graph.Edge{Src: v, Dst: 7})
	}
	edges = append(edges, graph.Edge{Src: 10, Dst: 3}, graph.Edge{Src: 11, Dst: 3}, graph.Edge{Src: 11, Dst: 0})
	g, err := graph.FromEdges(12, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSumLoweringMatchesGeneric evaluates the $SUM rule on the generic
// evaluator and through EvalOnce and requires the same tuples with the
// same float64 bits, at 1, 2 and 4 workers and across them. Scenarios the
// guard must refuse (a source with edges but no driver or prefix tuple)
// have to leave the head untouched and still agree.
func TestSumLoweringMatchesGeneric(t *testing.T) {
	graphs := fixpointFixtures(t)
	graphs["hand"] = handBuiltGraph(t)
	third := func(k uint32) bool { return k%3 == 0 }
	scenarios := []sumTables{
		{name: "seeded", lowers: true},
		{name: "partial-head", outHas: third, lowers: true, negativeZeroes: true},
		{name: "empty-head", outHas: func(uint32) bool { return false }, lowers: true, negativeZeroes: true},
		{name: "partial-driver", aHas: func(k uint32) bool { return k%4 != 1 }, outHas: third},
		{name: "partial-prefix", bHas: func(k uint32) bool { return k%5 != 2 }},
	}
	for name, g := range graphs {
		edge := NewEdgeTable("E", g)
		for _, sc := range scenarios {
			var across *VecTable
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/procs=%d", name, sc.name, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					pool := par.NewPool(0)
					defer pool.Close()

					generic := buildSumRule(t, edge, sc)
					if _, err := evalSharded(pool, generic, 0, edge.NumKeys(), nil, nil, 0, false); err != nil {
						t.Fatal(err)
					}
					want := generic.Head.Table
					if across == nil {
						across = want
					}
					requireSameBits(t, "generic across worker counts", across, want)

					probe := buildSumRule(t, edge, sc)
					sh, ok := matchEdgeShape(probe)
					if !ok {
						t.Fatal("the $SUM rule did not match the shape")
					}
					if lowered := evalEdgeSum(pool, sh); lowered != sc.lowers {
						t.Fatalf("evalEdgeSum = %v, want %v", lowered, sc.lowers)
					} else if !lowered {
						requireSameBits(t, "refused head", buildSumRule(t, edge, sc).Head.Table, probe.Head.Table)
					} else {
						requireSameBits(t, "lowered", want, probe.Head.Table)
					}

					once := buildSumRule(t, edge, sc)
					if err := EvalOnce(pool, once); err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, "EvalOnce", want, once.Head.Table)
				})
			}
		}
	}
}

// TestGlobalCountMatchesReference pins the global-aggregate evaluator:
// the paper's triangle rule counts what core/reference.go counts at every
// worker count, on top of whatever the head already held.
func TestGlobalCountMatchesReference(t *testing.T) {
	g := fixtureAcyclic(t)
	want := core.RefTriangleCount(g)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := par.NewPool(0)
			defer pool.Close()
			tri := NewVecTable("TRIANGLE", 1)
			reg := NewRegistry()
			reg.Register(NewEdgeTable("EDGE", g))
			reg.Register(tri)
			rule, err := Parse("TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).", reg)
			if err != nil {
				t.Fatal(err)
			}
			for round := int64(1); round <= 2; round++ {
				if err := EvalOnce(pool, rule); err != nil {
					t.Fatal(err)
				}
				if v, _ := tri.Get(0); int64(v) != round*want {
					t.Fatalf("after %d evaluations the count is %v, want %d", round, v, round*want)
				}
			}
		})
	}
}

// TestNaNEmissionsDroppedAtEveryWorkerCount pins the NaN rule: a NaN head
// value is no tuple on the compiled single-worker loop, the sharded
// evaluator and the lowering alike. A[0] = +Inf makes v0 - v0 NaN.
func TestNaNEmissionsDroppedAtEveryWorkerCount(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 3, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Rule {
		a, out := NewVecTable("A", 4), NewVecTable("OUT", 4)
		a.Put(0, math.Inf(1))
		for k := uint32(1); k < 4; k++ {
			a.Put(k, float64(k))
		}
		reg := NewRegistry()
		for _, tab := range []Table{NewEdgeTable("E", g), a, out} {
			reg.Register(tab)
		}
		rule, err := Parse("OUT[n]($SUM(v)) :- A[s](v0), v = v0 - v0 + 1, E[s](n).", reg)
		if err != nil {
			t.Fatal(err)
		}
		return rule
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := par.NewPool(0)
			defer pool.Close()
			generic, once := build(), build()
			if _, err := evalSharded(pool, generic, 0, 4, nil, nil, 0, false); err != nil {
				t.Fatal(err)
			}
			if err := EvalOnce(pool, once); err != nil {
				t.Fatal(err)
			}
			for what, rule := range map[string]*Rule{"evalSharded": generic, "EvalOnce": once} {
				if v, ok := rule.Head.Table.Get(1); !ok || v != 1 {
					t.Errorf("%s: OUT[1] = %v (present=%v), want 1: source 0's NaN is no tuple", what, v, ok)
				}
				if v, ok := rule.Head.Table.Get(2); !ok || v != 1 {
					t.Errorf("%s: OUT[2] = %v (present=%v), want 1", what, v, ok)
				}
			}
		})
	}
}

// TestScalarColumnGathersAliasedValues pins the dense column's rules: a
// value read from one key and stored under another is copied into the
// other's slot, so a later write to the first key does not reach it;
// absent keys read as the fill; and a write to a slot is what its key
// reads.
func TestScalarColumnGathersAliasedValues(t *testing.T) {
	tab := NewVecTable("T", 6)
	for _, k := range []uint32{0, 1, 2, 4} {
		tab.Put(k, float64(k)+0.5)
	}
	v4, _ := tab.Get(4)
	tab.Put(5, v4)
	tab.Put(4, 9)
	col := tab.scalarColumn(-1)
	want := []float64{0.5, 1.5, 2.5, -1, 9, 4.5}
	if !slices.Equal(col, want) {
		t.Fatalf("column %v, want %v", col, want)
	}
	col[5] = 7
	if v, _ := tab.Get(5); v != 7 {
		t.Fatalf("key 5 reads %v after a write to its column slot", v)
	}
}
