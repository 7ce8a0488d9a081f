package socialite

import (
	"math/rand"
	"testing"

	"graphmaze/internal/graph"
)

// randomRuleFixture builds a PageRank-shaped rule over a random graph so
// the three evaluation paths (generic serial, compiled, sharded parallel)
// can be compared.
func randomRuleFixture(t *testing.T, seed int64, n uint32, m int) (*Rule, *VecTable, func() *VecTable) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(r.Intn(int(n))), Dst: uint32(r.Intn(int(n)))}
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
		src.Put(v, Scalar(float64(v%17)+1))
	}
	makeRule := func(head *VecTable) *Rule {
		return &Rule{
			Name: "sum", KeySlots: 2, ValSlots: 2,
			Driver: Driver{Vec: &VecAtom{Table: src, KeySlot: 0, ValSlot: 0}},
			Atoms: []Atom{
				{Let: &Let{OutSlot: 1, FScalar: func(env *Env) float64 { return env.Vals[0].S() * 2 }}},
				{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
			},
			Head: Head{Agg: AggSum, KeySlot: 1, ValSlot: 1},
		}
	}
	// Returns a fresh head table + rule each call.
	return nil, src, func() *VecTable {
		head := NewVecTable("H", n)
		rule := makeRule(head)
		rule.Head.Table = head
		if err := rule.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := EvalParallel(rule, 0, n, nil, nil, 0, false); err != nil {
			t.Fatal(err)
		}
		return head
	}
}

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
		src.Put(v, Scalar(float64(v)+0.5))
	}
	build := func(head *VecTable) *Rule {
		return &Rule{
			Name: "sum", KeySlots: 2, ValSlots: 2,
			Driver: Driver{Vec: &VecAtom{Table: src, KeySlot: 0, ValSlot: 0}},
			Atoms: []Atom{
				{Let: &Let{OutSlot: 1, FScalar: func(env *Env) float64 { return env.Vals[0].S() * 3 }}},
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
	ruleW.evalDriver(ruleW.newEnv(), 0, n, nil, func(key uint32, val Value) {
		want.foldScalar(AggSum, key, val[0])
	})

	// Parallel/compiled evaluation.
	got := NewVecTable("G", n)
	ruleG := build(got)
	ruleG.Head.Table = got
	if err := ruleG.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalParallel(ruleG, 0, n, nil, nil, 0, false); err != nil {
		t.Fatal(err)
	}

	if want.Len() != got.Len() {
		t.Fatalf("len %d vs %d", got.Len(), want.Len())
	}
	want.ForEach(func(key uint32, val Value) {
		gv, ok := got.Get(key)
		if !ok {
			t.Fatalf("key %d missing from parallel result", key)
		}
		diff := gv.S() - val.S()
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Fatalf("key %d: %v vs %v", key, gv.S(), val.S())
		}
	})
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
			{Let: &Let{OutSlot: 1, FScalar: func(env *Env) float64 { return 1 }}},
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
	dist := NewVecTable("D", 4)
	dist.Put(0, Scalar(0))
	dist.Put(2, Scalar(0))
	rule := &Rule{
		Name: "bfs", KeySlots: 2, ValSlots: 2,
		Driver: Driver{Vec: &VecAtom{Table: dist, KeySlot: 0, ValSlot: 0}},
		Atoms: []Atom{
			{Let: &Let{OutSlot: 1, FScalar: func(env *Env) float64 { return env.Vals[0].S() + 1 }}},
			{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
		},
		Head: Head{Table: dist, Agg: AggMin, KeySlot: 1, ValSlot: 1},
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delta restricted to source 0: only vertex 1 should be discovered.
	stats, err := EvalParallel(rule, 0, 4, []uint32{0}, nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Changed) != 1 || stats.Changed[0] != 1 {
		t.Errorf("Changed = %v, want [1]", stats.Changed)
	}
	if _, ok := dist.Get(3); ok {
		t.Error("vertex 3 reached despite delta restriction")
	}
}

func TestEvalParallelRemoteAccounting(t *testing.T) {
	g, _ := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 0, Dst: 1}})
	edgeT := NewEdgeTable("E", g)
	src := NewVecTable("S", 4)
	src.Put(0, Scalar(1))
	head := NewVecTable("H", 4)
	rule := &Rule{
		Name: "acc", KeySlots: 2, ValSlots: 2,
		Driver: Driver{Vec: &VecAtom{Table: src, KeySlot: 0, ValSlot: 0}},
		Atoms: []Atom{
			{Let: &Let{OutSlot: 1, FScalar: func(env *Env) float64 { return 1 }}},
			{Edge: &EdgeAtom{Table: edgeT, SrcSlot: 0, DstSlot: 1, WeightSlot: -1}},
		},
		Head: Head{Table: head, Agg: AggSum, KeySlot: 1, ValSlot: 1},
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Owner: keys < 2 → node 0, else node 1. Evaluating as node 0, the
	// emission to key 3 is remote, to key 1 local.
	owner := func(k uint32) int {
		if k < 2 {
			return 0
		}
		return 1
	}
	stats, err := EvalParallel(rule, 0, 4, nil, owner, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteTuples != 1 || stats.RemoteBytes != 12 {
		t.Errorf("remote accounting = %d tuples / %d bytes, want 1/12", stats.RemoteTuples, stats.RemoteBytes)
	}
}

func TestFoldScalarMatchesFold(t *testing.T) {
	for _, agg := range []Agg{AggAssign, AggSum, AggMin, AggCount} {
		a := NewVecTable("A", 4)
		b := NewVecTable("B", 4)
		inputs := []float64{3, 1, 4, 1, 5}
		for _, x := range inputs {
			a.fold(agg, 0, Scalar(x))
			b.foldScalar(agg, 0, x)
		}
		av, _ := a.Get(0)
		bv, _ := b.Get(0)
		if av.S() != bv.S() {
			t.Errorf("%v: fold %v vs foldScalar %v", agg, av.S(), bv.S())
		}
	}
}
