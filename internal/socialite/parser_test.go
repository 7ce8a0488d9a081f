package socialite

import (
	"strings"
	"testing"

	"graphmaze/internal/core"
	"graphmaze/internal/graph"
)

func parserFixture(t *testing.T) (*Registry, *graph.CSR) {
	t.Helper()
	g := fixtureDirected(t)
	reg := NewRegistry()
	reg.Register(NewEdgeTable("OUTEDGE", g))
	reg.Register(NewEdgeTable("EDGE", g))
	outDeg := NewVecTable("OUTDEG", g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		outDeg.Put(v, Scalar(float64(g.Degree(v))))
	}
	reg.Register(outDeg)
	rank := NewVecTable("RANK", g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		rank.Put(v, 1)
	}
	reg.Register(rank)
	reg.Register(NewVecTable("RANK2", g.NumVertices))
	reg.Register(NewVecTable("BFS", g.NumVertices))
	reg.Register(NewVecTable("TRIANGLE", 1))
	return reg, g
}

// TestParsePageRankRuleMatchesReference runs one parsed PageRank iteration
// against the serial reference.
func TestParsePageRankRuleMatchesReference(t *testing.T) {
	reg, g := parserFixture(t)
	rule, err := Parse(
		"RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = (1-0.3)*v0/d, OUTEDGE[s](n).",
		reg)
	if err != nil {
		t.Fatal(err)
	}
	rank2, _ := reg.Lookup("RANK2")
	head := rank2.(*VecTable)
	// Seed rule RANK2[n](0.3).
	for v := uint32(0); v < g.NumVertices; v++ {
		head.Put(v, 0.3)
	}
	if _, err := evalSharded(newTestPool(t, 0), rule, 0, g.NumVertices, nil, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	want := core.RefPageRank(g, core.PageRankOptions{Iterations: 1})
	for v := uint32(0); v < g.NumVertices; v++ {
		got, _ := head.Get(v)
		d := got - want[v]
		if d < 0 {
			d = -d
		}
		if d > 1e-9 {
			t.Fatalf("vertex %d: parsed rule gives %v, reference %v", v, got, want[v])
		}
	}
}

// TestParseBFSRuleFixpoint runs the parsed recursive BFS rule to fixpoint.
func TestParseBFSRuleFixpoint(t *testing.T) {
	g := fixtureUndirected(t)
	reg := NewRegistry()
	reg.Register(NewEdgeTable("EDGE", g))
	dist := NewVecTable("BFS", g.NumVertices)
	reg.Register(dist)
	rule, err := Parse("BFS(t, $MIN(d)) :- BFS(s, d0), EDGE(s, t), d = d0+1.", reg)
	if err != nil {
		t.Fatal(err)
	}
	dist.Put(7, 0)
	if _, err := Fixpoint(newTestPool(t, 0), rule); err != nil {
		t.Fatal(err)
	}
	want := core.RefBFS(g, 7)
	for v := uint32(0); v < g.NumVertices; v++ {
		got, ok := dist.Get(v)
		if want[v] == -1 {
			if ok {
				t.Fatalf("vertex %d reachable in rule result but not reference", v)
			}
			continue
		}
		if !ok || int32(got) != want[v] {
			t.Fatalf("vertex %d: distance %v, want %d", v, got, want[v])
		}
	}
}

// TestParseTriangleRule runs the parsed three-way join.
func TestParseTriangleRule(t *testing.T) {
	g := fixtureAcyclic(t)
	reg := NewRegistry()
	reg.Register(NewEdgeTable("EDGE", g))
	tri := NewVecTable("TRIANGLE", 1)
	reg.Register(tri)
	rule, err := Parse("TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalSharded(newTestPool(t, 0), rule, 0, g.NumVertices, nil, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	want := core.RefTriangleCount(g)
	got, _ := tri.Get(0)
	if int64(got) != want {
		t.Fatalf("parsed rule counts %v triangles, want %d", got, want)
	}
}

func TestParseBracketAndFlatFormsEquivalent(t *testing.T) {
	reg, g := parserFixture(t)
	a, err := Parse("RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = v0/d, OUTEDGE[s](n).", reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("RANK2(n, $SUM(v)) :- RANK(s, v0), OUTDEG(s, d), v = v0/d, OUTEDGE(s, n).", reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.KeySlots != b.KeySlots || a.ValSlots != b.ValSlots || len(a.Atoms) != len(b.Atoms) {
		t.Errorf("forms compile differently: %+v vs %+v", a, b)
	}
	_ = g
}

func TestParseExpressionPrecedence(t *testing.T) {
	reg, _ := parserFixture(t)
	rule, err := Parse("RANK2[s]($SUM(v)) :- RANK[s](v0), v = 1+2*3-4/2, OUTEDGE[s](n).", reg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the Let atom and evaluate it: 1+6-2 = 5.
	for _, a := range rule.Atoms {
		if a.Let != nil {
			env := &Env{Keys: make([]uint32, rule.KeySlots), Vals: make([]float64, rule.ValSlots)}
			if got := a.Let.F(env); got != 5 {
				t.Errorf("1+2*3-4/2 = %v, want 5", got)
			}
			return
		}
	}
	t.Fatal("no Let atom compiled")
}

func TestParseUnaryMinusAndParens(t *testing.T) {
	reg, _ := parserFixture(t)
	rule, err := Parse("RANK2[s]($SUM(v)) :- RANK[s](v0), v = -(2+1)*v0, OUTEDGE[s](n).", reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rule.Atoms {
		if a.Let != nil {
			env := &Env{Keys: make([]uint32, rule.KeySlots), Vals: make([]float64, rule.ValSlots)}
			env.Vals[0] = 2 // v0
			if got := a.Let.F(env); got != -6 {
				t.Errorf("-(2+1)*2 = %v, want -6", got)
			}
			return
		}
	}
	t.Fatal("no Let atom compiled")
}

func TestParseErrors(t *testing.T) {
	reg, _ := parserFixture(t)
	cases := []struct {
		src, wantFrag string
	}{
		{"RANK2[n]($SUM(v))", "':-'"},
		{"NOPE[n]($SUM(v)) :- RANK[s](v0), OUTEDGE[s](n), v = v0.", "unknown head table"},
		{"RANK2[n]($SUM(v)) :- NOPE[s](v0), v = v0, OUTEDGE[s](n).", "unknown table"},
		{"RANK2[n]($SUM(v)) :- RANK[s](v0), v = q, OUTEDGE[s](n).", "unbound variable"},
		{"RANK2[n]($SUM(v)) :- RANK[s](v0), OUTEDGE[z](n), v = v0.", "unbound"},
		{"RANK2[n]($MAX(v)) :- RANK[s](v0), v = v0, OUTEDGE[s](n).", "unknown aggregation"},
		{"RANK2[n]($SUM(q)) :- RANK[s](v0), OUTEDGE[s](n).", "never bound"},
		{"RANK2[w]($SUM(v)) :- RANK[s](v0), v = v0, OUTEDGE[s](n).", "never bound"},
		{"RANK2[n]($INC(7)) :- OUTEDGE[s](n), RANK[s](v0).", "only $INC(1)"},
		{"v = 3 :- RANK[s](v0).", ""},
		{"RANK2[n]($SUM(v)) :- RANK[s](v0), v = v0 @, OUTEDGE[s](n).", "unexpected character"},
		{"OUTEDGE[n]($SUM(v)) :- RANK[s](v0), v = v0, OUTEDGE[s](n).", "must be a keyed table"},
	}
	for _, c := range cases {
		_, err := Parse(c.src, reg)
		if err == nil {
			t.Errorf("accepted %q", c.src)
			continue
		}
		if c.wantFrag != "" && !strings.Contains(err.Error(), c.wantFrag) {
			t.Errorf("%q: error %q missing %q", c.src, err, c.wantFrag)
		}
	}
}

func TestParseDriverEdgeContainmentCheck(t *testing.T) {
	// The third EDGE atom has both variables bound → must compile to a
	// containment check, not an enumeration.
	g := fixtureAcyclic(t)
	reg := NewRegistry()
	reg.Register(NewEdgeTable("EDGE", g))
	reg.Register(NewVecTable("TRIANGLE", 1))
	rule, err := Parse("TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).", reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rule.Atoms) != 2 {
		t.Fatalf("atoms = %d, want 2", len(rule.Atoms))
	}
	if rule.Atoms[1].Edge == nil || !rule.Atoms[1].Edge.DstBound {
		t.Error("third EDGE atom not compiled as a containment check")
	}
	if rule.Head.KeySlot != -1 || rule.Head.ValSlot != -1 {
		t.Errorf("head slots = %d/%d, want -1/-1 (global $INC(1))", rule.Head.KeySlot, rule.Head.ValSlot)
	}
}

// TestParseBothPaperPageRankVariants: §3.1 prints two PageRank rule
// versions — one joining incoming edges from the destination's side
// (single-machine-optimized) and one distributing from the source's side
// (distributed-optimized). Both must compile and agree.
func TestParseBothPaperPageRankVariants(t *testing.T) {
	g := fixtureDirected(t)
	in := g.Transpose()
	reg := NewRegistry()
	reg.Register(NewEdgeTable("OUTEDGE", g))
	reg.Register(NewEdgeTable("INEDGE", in))
	outDeg := NewVecTable("OUTDEG", g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		outDeg.Put(v, Scalar(float64(g.Degree(v))))
	}
	reg.Register(outDeg)
	rank := NewVecTable("RANK", g.NumVertices)
	for v := uint32(0); v < g.NumVertices; v++ {
		rank.Put(v, 1)
	}
	reg.Register(rank)
	v1out := NewVecTable("RANKV1", g.NumVertices)
	v2out := NewVecTable("RANKV2", g.NumVertices)
	reg.Register(v1out)
	reg.Register(v2out)

	// Variant 1 (single-machine): gather over incoming edges; the joins on
	// RANK[s] and OUTDEG[s] key on the edge-bound source.
	v1, err := Parse("RANKV1(n, $SUM(v)) :- INEDGE(n, s), RANK(s, v0), OUTDEG(s, d), v = (1-0.3)*v0/d.", reg)
	if err != nil {
		t.Fatal(err)
	}
	// Variant 2 (distributed): distribute along outgoing edges.
	v2, err := Parse("RANKV2(n, $SUM(v)) :- RANK(s, v0), OUTDEG(s, d), v = (1-0.3)*v0/d, OUTEDGE(s, n).", reg)
	if err != nil {
		t.Fatal(err)
	}

	seed := func(tab *VecTable) {
		for v := uint32(0); v < g.NumVertices; v++ {
			tab.Put(v, 0.3)
		}
	}
	seed(v1out)
	seed(v2out)
	pool := newTestPool(t, 0)
	if _, err := evalSharded(pool, v1, 0, g.NumVertices, nil, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := evalSharded(pool, v2, 0, g.NumVertices, nil, nil, 0, false); err != nil {
		t.Fatal(err)
	}
	want := core.RefPageRank(g, core.PageRankOptions{Iterations: 1})
	for v := uint32(0); v < g.NumVertices; v++ {
		a, _ := v1out.Get(v)
		b, _ := v2out.Get(v)
		if d := a - b; d > 1e-9 || d < -1e-9 {
			t.Fatalf("vertex %d: variants disagree: %v vs %v", v, a, b)
		}
		if d := a - want[v]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("vertex %d: variant 1 gives %v, reference %v", v, a, want[v])
		}
	}
}
