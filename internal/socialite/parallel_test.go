package socialite

import (
	"fmt"
	"math/rand"
	"testing"

	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// shardPoolSizes are the worker counts the sharded evaluator's tests run
// at: serial, the smallest split, and one that divides no key range evenly.
var shardPoolSizes = []int{1, 2, 5}

// newTestPool returns a pool of the given size, closed when t ends.
func newTestPool(t testing.TB, workers int) *par.Pool {
	t.Helper()
	p := par.NewPool(workers)
	t.Cleanup(p.Close)
	return p
}

// TestEvalParallelMatchesSerialFold: the sharded evaluator, at every pool
// size and through EvalParallel's borrowed pool, folds each key's updates
// in ascending driver order — the serial fold's, bit for bit.
func TestEvalParallelMatchesSerialFold(t *testing.T) {
	const n, m = 300, 2000
	r := rand.New(rand.NewSource(7))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	edgeT := NewEdgeTable("E", g)
	src := NewVecTable("SRC", n)
	for v := uint32(0); v < n; v++ {
		src.Put(v, float64(v)+0.5)
	}
	build := func(head *VecTable) *Rule {
		return &Rule{
			Name: "sum", KeySlots: 2, ValSlots: 2,
			Driver: Driver{Vec: &VecAtom{Table: src, KeySlot: 0, ValSlot: 0}},
			Atoms: []Atom{
				{Let: &Let{OutSlot: 1, F: func(env *Env) float64 { return env.Vals[0] * 3 }}},
				{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
			},
			Head: Head{Agg: AggSum, KeySlot: 1, ValSlot: 1},
		}
	}

	// Serial reference via the generic recursive evaluator.
	want := NewVecTable("W", n)
	ruleW := build(want)
	ruleW.Head.Table = want
	if err := ruleW.Validate(); err != nil {
		t.Fatal(err)
	}
	ruleW.evalDriver(ruleW.newEnv(), 0, n, nil, func(key uint32, val float64) {
		want.fold(AggSum, key, val)
	})

	evals := map[string]func(*Rule) error{"EvalParallel": func(rule *Rule) error {
		_, err := EvalParallel(rule, 0, n, nil, nil, 0, false)
		return err
	}}
	for _, workers := range shardPoolSizes {
		pool := newTestPool(t, workers)
		evals[fmt.Sprintf("evalSharded/%d", workers)] = func(rule *Rule) error {
			_, err := evalSharded(pool, rule, 0, n, nil, nil, 0, false)
			return err
		}
	}
	for what, eval := range evals {
		got := NewVecTable("G", n)
		ruleG := build(got)
		ruleG.Head.Table = got
		if err := ruleG.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := eval(ruleG); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, what, want, got)
	}
}

func TestCompileScalarRuleRecognition(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}})
	edgeT := NewEdgeTable("E", g)
	vt := NewVecTable("V", 4)
	head := NewVecTable("H", 4)

	good := &Rule{
		Name: "ok", KeySlots: 2, ValSlots: 2,
		Driver: Driver{Vec: &VecAtom{Table: vt, KeySlot: 0, ValSlot: 0}},
		Atoms: []Atom{
			{Let: &Let{OutSlot: 1, F: func(env *Env) float64 { return 1 }}},
			{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
		},
		Head: Head{Table: head, Agg: AggSum, KeySlot: 1, ValSlot: 1},
	}
	if _, ok := matchEdgeShape(good); !ok {
		t.Error("hot-shape rule not recognized by the compiler")
	}

	// Edge driver → not the hot shape.
	edgeDriven := &Rule{
		Name: "edge", KeySlots: 2, ValSlots: 1,
		Driver: Driver{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
		Head:   Head{Table: head, Agg: AggCount, KeySlot: -1, ValSlot: -1},
	}
	if _, ok := matchEdgeShape(edgeDriven); ok {
		t.Error("edge-driven rule wrongly compiled")
	}

	// Weighted edge atom → generic path.
	weighted := &Rule{
		Name: "w", KeySlots: 2, ValSlots: 2,
		Driver: Driver{Vec: &VecAtom{Table: vt, KeySlot: 0, ValSlot: 0}},
		Atoms: []Atom{
			{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: 1}},
		},
		Head: Head{Table: head, Agg: AggSum, KeySlot: 1, ValSlot: 1},
	}
	if _, ok := matchEdgeShape(weighted); ok {
		t.Error("weighted-edge rule wrongly compiled")
	}
}

func TestEvalParallelDeltaRestriction(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	edgeT := NewEdgeTable("E", g)
	for _, workers := range shardPoolSizes {
		dist := NewVecTable("D", 4)
		dist.Put(0, 0)
		dist.Put(2, 0)
		rule := &Rule{
			Name: "bfs", KeySlots: 2, ValSlots: 2,
			Driver: Driver{Vec: &VecAtom{Table: dist, KeySlot: 0, ValSlot: 0}},
			Atoms: []Atom{
				{Let: &Let{OutSlot: 1, F: func(env *Env) float64 { return env.Vals[0] + 1 }}},
				{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
			},
			Head: Head{Table: dist, Agg: AggMin, KeySlot: 1, ValSlot: 1},
		}
		if err := rule.Validate(); err != nil {
			t.Fatal(err)
		}
		// Delta restricted to source 0: only vertex 1 should be discovered.
		stats, err := evalSharded(newTestPool(t, workers), rule, 0, 4, []uint32{0}, nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Changed) != 1 || stats.Changed[0] != 1 {
			t.Errorf("%d workers: Changed = %v, want [1]", workers, stats.Changed)
		}
		if _, ok := dist.Get(3); ok {
			t.Errorf("%d workers: vertex 3 reached despite delta restriction", workers)
		}
	}
}

func TestEvalParallelRemoteAccounting(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 0, Dst: 1}})
	edgeT := NewEdgeTable("E", g)
	src := NewVecTable("S", 4)
	src.Put(0, 1)
	// Owner: keys < 2 → node 0, else node 1. Evaluating as node 0, the
	// emission to key 3 is remote, to key 1 local.
	owner := func(k uint32) int {
		if k < 2 {
			return 0
		}
		return 1
	}
	for _, workers := range shardPoolSizes {
		rule := &Rule{
			Name: "acc", KeySlots: 2, ValSlots: 2,
			Driver: Driver{Vec: &VecAtom{Table: src, KeySlot: 0, ValSlot: 0}},
			Atoms: []Atom{
				{Let: &Let{OutSlot: 1, F: func(env *Env) float64 { return 1 }}},
				{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
			},
			Head: Head{Table: NewVecTable("H", 4), Agg: AggSum, KeySlot: 1, ValSlot: 1},
		}
		if err := rule.Validate(); err != nil {
			t.Fatal(err)
		}
		stats, err := evalSharded(newTestPool(t, workers), rule, 0, 4, nil, owner, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RemoteBytes != 12 {
			t.Errorf("%d workers: remote bytes = %d, want 12", workers, stats.RemoteBytes)
		}
	}
}

// TestBoundValuesAreReadAtBindTime: a value a body atom binds is the one
// its table held when it was bound, so a rule that reads its own head
// gives one answer wherever its assignment is written and whichever
// evaluator folds it — the direct one (a one-worker pool, a constant head
// key), which folds while the join runs, or the routed one, which folds
// after. R[0] starts at 1 and emits v0+1 = 2 along each of its two edges.
func TestBoundValuesAreReadAtBindTime(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"R[s]($SUM(v)) :- R[s](v0), EDGE[s](t), v = v0 + 1.",
		"R[s]($SUM(v)) :- R[s](v0), v = v0 + 1, EDGE[s](t).",
		"R(0, $SUM(v)) :- R(s, v0), EDGE(s, t), v = v0 + 1.",
	} {
		for _, workers := range shardPoolSizes {
			reg := NewRegistry()
			r := NewVecTable("R", 3)
			r.Put(0, 1)
			reg.Register(NewEdgeTable("EDGE", g))
			reg.Register(r)
			rule, err := Parse(src, reg)
			if err != nil {
				t.Fatal(err)
			}
			if err := EvalOnce(newTestPool(t, workers), rule); err != nil {
				t.Fatal(err)
			}
			if v, _ := r.Get(0); v != 5 {
				t.Errorf("%d workers: %s gives R[0] = %v, want 1+2+2 = 5", workers, src, v)
			}
		}
	}
}
