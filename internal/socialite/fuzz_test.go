package socialite

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// fuzzGraph is the fixed 64-vertex graph FuzzParse evaluates on: two
// arithmetic out-edges per vertex, a hub (0), and a vertex nothing touches
// (63). Adjacency is sorted, as containment checks need.
func fuzzGraph(t testing.TB) *graph.CSR {
	t.Helper()
	const n = 64
	var edges []graph.Edge
	for v := uint32(0); v < n-1; v++ {
		edges = append(edges,
			graph.Edge{Src: v, Dst: (v*7 + 3) % (n - 1)},
			graph.Edge{Src: v, Dst: (v*v + 1) % (n - 1)})
		if v%4 == 0 {
			edges = append(edges, graph.Edge{Src: v, Dst: 0}, graph.Edge{Src: 0, Dst: v})
		}
	}
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fuzzRegistry registers, over g, every table the paper's three rules
// name. All are keyed by g's vertex space — the precondition under which
// a parsed rule may be evaluated at all.
func fuzzRegistry(g *graph.CSR) (*Registry, []*VecTable) {
	n := g.NumVertices
	rank, outDeg, rank2 := NewVecTable("RANK", n), NewVecTable("OUTDEG", n), NewVecTable("RANK2", n)
	rank.FillScalars(func(k uint32) float64 { return 1 / float64(k%11+1) })
	outDeg.FillScalars(func(k uint32) float64 { return float64(g.Degree(k)) })
	for k := uint32(0); k < n; k += 3 {
		rank2.Put(k, Scalar(0.3))
	}
	bfs := NewVecTable("BFS", n)
	bfs.Put(0, Scalar(0))
	tables := []*VecTable{rank, outDeg, rank2, bfs, NewVecTable("TRIANGLE", n)}
	reg := NewRegistry()
	reg.Register(NewEdgeTable("OUTEDGE", g))
	reg.Register(NewEdgeTable("EDGE", g))
	for _, tab := range tables {
		reg.Register(tab)
	}
	return reg, tables
}

// FuzzParse: no rule text panics the parser, every rejection names an
// offset, and a rule that parses evaluates to the same tuples, bit for
// bit, on the generic sharded evaluator at 1, 2 and 5 workers and through
// the matcher's paths on a pool of 3.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = (1-0.3)*v0/d, OUTEDGE[s](n).",
		"BFS(t, $MIN(d)) :- BFS(s, d0), d = d0 + 1, EDGE(s, t).",
		"TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).",
		"RANK2[n]($SUM(v)) :- RANK[s](v0), v = v0 - v0 / (0 - v0), OUTEDGE[s](n)",
		"RANK2[t]($SUM(d)) :- EDGE(s, t), RANK[s](d0), d = -d0 * 2.5.",
		"RANK[n]($SUM(v)):-RANK[s](v),EDGE[s](n)", // reads its own head
	} {
		f.Add(seed)
	}
	g := fuzzGraph(f)
	var shardPools []*backend.Pool
	for _, workers := range shardPoolSizes {
		shardPools = append(shardPools, newTestPool(f, workers))
	}
	pool := newTestPool(f, 3)
	f.Fuzz(func(t *testing.T, src string) {
		pooledReg, pooledTables := fuzzRegistry(g)
		pooled, err := Parse(src, pooledReg)
		if err != nil {
			if !strings.Contains(err.Error(), "at offset ") {
				t.Fatalf("error names no offset: %v", err)
			}
			return
		}
		generic := make([]*Rule, len(shardPools))
		genericTables := make([][]*VecTable, len(shardPools))
		for i := range shardPools {
			reg, tables := fuzzRegistry(g)
			if generic[i], err = Parse(src, reg); err != nil {
				t.Fatalf("second parse of an accepted rule failed: %v", err)
			}
			genericTables[i] = tables
		}
		same := func(what string) {
			t.Helper()
			for i, tables := range genericTables {
				for j, want := range tables {
					if err := sameBits(want, pooledTables[j]); err != nil {
						t.Fatalf("%s, %d workers: table %s: %v", what, shardPoolSizes[i], want.Name(), err)
					}
				}
			}
		}
		n := g.NumVertices
		low, _ := LowerBFSRule(pool, pooled)
		switch {
		case low != nil:
		case pooled.readsHead():
			// The result depends on when each fold lands, which no two
			// worker counts agree on: one evaluation, for panics only.
			if err := EvalOnce(pool, pooled); err != nil {
				t.Fatal(err)
			}
			return
		default:
			for i, p := range shardPools {
				if _, err := evalSharded(p, generic[i], 0, n, nil, nil, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := EvalOnce(pool, pooled); err != nil {
				t.Fatal(err)
			}
			same("EvalOnce")
			return
		}
		// A recursive rule may never converge: compare a bounded number of
		// rounds, the lowering's against the generic evaluator's.
		var deltaP []uint32
		pooled.Head.Table.ForEach(func(k uint32, _ Value) { deltaP = append(deltaP, k) })
		deltaG := make([][]uint32, len(shardPools))
		for i := range deltaG {
			deltaG[i] = slices.Clone(deltaP)
		}
		for round := 1; round <= 8 && len(deltaP) > 0; round++ {
			for i, p := range shardPools {
				stats, err := evalSharded(p, generic[i], 0, n, deltaG[i], nil, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				deltaG[i] = stats.Changed
			}
			next, lowered := low.Round(deltaP)
			if !lowered {
				stats, err := evalSharded(pool, pooled, 0, n, deltaP, nil, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				next = stats.Changed
			}
			deltaP = slices.Clone(next)
			same(fmt.Sprintf("round %d", round))
			for i := range deltaG {
				if !slices.Equal(sortedCopy(deltaG[i]), sortedCopy(deltaP)) {
					t.Fatalf("round %d, %d workers: changed keys differ", round, shardPoolSizes[i])
				}
			}
		}
	})
}
