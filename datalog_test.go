package graphmaze

import (
	"testing"

	"graphmaze/internal/core"
)

func TestDatalogBFSFixpoint(t *testing.T) {
	g, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 12}, ForBFS)
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(0)
	for v := uint32(0); v < g.NumVertices; v++ {
		if g.Degree(v) > g.Degree(src) {
			src = v
		}
	}
	db := NewDatalog()
	db.AddEdgeTable("EDGE", g)
	dist := db.AddTable("BFS", g.NumVertices)
	dist.Set(src, 0)
	rounds, err := db.Fixpoint("BFS(t, $MIN(d)) :- BFS(s, d0), d = d0 + 1, EDGE(s, t).")
	if err != nil {
		t.Fatal(err)
	}
	// The generic semi-naive loop took exactly 5 rounds on this graph; the
	// shared lowered driver must count rounds the same way.
	if rounds != 5 {
		t.Errorf("fixpoint converged in %d rounds, want 5", rounds)
	}
	want := core.RefBFS(g, src)
	for v := uint32(0); v < g.NumVertices; v++ {
		got, ok := dist.Get(v)
		if want[v] == -1 {
			if ok {
				t.Fatalf("vertex %d reachable via datalog but not reference", v)
			}
			continue
		}
		if !ok || int32(got) != want[v] {
			t.Fatalf("vertex %d: datalog distance %v, want %d", v, got, want[v])
		}
	}
}

func TestDatalogTriangleQuery(t *testing.T) {
	g, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 12}, ForTriangles)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatalog()
	db.AddEdgeTable("EDGE", g)
	tri := db.AddTable("TRIANGLE", 1)
	if err := db.Eval("TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z)."); err != nil {
		t.Fatal(err)
	}
	count, ok := tri.Get(0)
	if !ok {
		t.Fatal("no triangle count produced")
	}
	if int64(count) != core.RefTriangleCount(g) {
		t.Errorf("datalog counts %v, reference %d", count, core.RefTriangleCount(g))
	}
}

func TestDatalogDegreeQuery(t *testing.T) {
	g, err := Generate(Graph500{Scale: 8, EdgeFactor: 8, Seed: 12}, ForPageRank)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatalog()
	db.AddEdgeTable("EDGE", g)
	deg := db.AddTable("DEG", g.NumVertices)
	if err := db.Eval("DEG(s, $SUM(one)) :- EDGE(s, t), one = 1."); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < g.NumVertices; v++ {
		got, ok := deg.Get(v)
		want := g.Degree(v)
		if want == 0 {
			if ok {
				t.Fatalf("vertex %d has spurious degree %v", v, got)
			}
			continue
		}
		if int64(got) != want {
			t.Fatalf("vertex %d: degree %v, want %d", v, got, want)
		}
	}
}

func TestDatalogErrors(t *testing.T) {
	db := NewDatalog()
	g, _ := Generate(Graph500{Scale: 6, EdgeFactor: 4, Seed: 1}, ForPageRank)
	db.AddEdgeTable("EDGE", g)
	db.AddTable("T", g.NumVertices)
	if err := db.Eval("T(s, $SUM(v)) :- NOPE(s, t), v = 1."); err == nil {
		t.Error("accepted rule over unknown table")
	}
	// Fixpoint on a non-recursive rule is rejected with guidance.
	if _, err := db.Fixpoint("T(s, $SUM(v)) :- EDGE(s, t), v = 1."); err == nil {
		t.Error("Fixpoint accepted non-recursive rule")
	}
}

func TestDatalogTableForEach(t *testing.T) {
	db := NewDatalog()
	tab := db.AddTable("X", 5)
	tab.Set(1, 10)
	tab.Set(3, 30)
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	sum := 0.0
	tab.ForEach(func(_ uint32, v float64) { sum += v })
	if sum != 40 {
		t.Errorf("sum = %v", sum)
	}
}
