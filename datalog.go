package graphmaze

import (
	"graphmaze/internal/par"
	"graphmaze/internal/socialite"
)

// Datalog is a queryable SociaLite-style Datalog session over graph data:
// register edge and value tables, then evaluate rules written in the
// paper's notation, e.g.
//
//	db := graphmaze.NewDatalog()
//	db.AddEdgeTable("EDGE", g)
//	dist := db.AddTable("BFS", g.NumVertices)
//	dist.Set(0, 0)
//	db.Fixpoint("BFS(t, $MIN(d)) :- BFS(s, d0), d = d0 + 1, EDGE(s, t).")
//
// Aggregations: $SUM, $MIN, $INC(1); plain heads assign. Recursive rules
// (head table appearing as the driver) are evaluated semi-naively by
// Fixpoint; non-recursive rules evaluate once with Eval.
type Datalog struct {
	reg *socialite.Registry
}

// NewDatalog returns an empty session.
func NewDatalog() *Datalog {
	return &Datalog{reg: socialite.NewRegistry()}
}

// AddEdgeTable registers a graph's adjacency as a two-column relation.
func (d *Datalog) AddEdgeTable(name string, g *Graph) {
	d.reg.Register(socialite.NewEdgeTable(name, g))
}

// DatalogTable is a keyed scalar relation usable in rules.
type DatalogTable struct {
	t *socialite.VecTable
}

// AddTable registers (and returns) an empty keyed table over [0, numKeys).
func (d *Datalog) AddTable(name string, numKeys uint32) *DatalogTable {
	t := socialite.NewVecTable(name, numKeys)
	d.reg.Register(t)
	return &DatalogTable{t: t}
}

// Set assigns key ← value.
func (t *DatalogTable) Set(key uint32, value float64) {
	t.t.Put(key, value)
}

// Get reads a key's value.
func (t *DatalogTable) Get(key uint32) (float64, bool) {
	return t.t.Get(key)
}

// Len reports how many keys hold values.
func (t *DatalogTable) Len() int { return t.t.Len() }

// ForEach visits every (key, value) pair in key order.
func (t *DatalogTable) ForEach(fn func(key uint32, value float64)) {
	t.t.ForEach(fn)
}

// Eval compiles and evaluates the rule once over all driver tuples, on a
// worker pool it owns for the call.
func (d *Datalog) Eval(src string) error {
	rule, err := socialite.Parse(src, d.reg)
	if err != nil {
		return err
	}
	pool := par.NewPool(0)
	defer pool.Close()
	return socialite.EvalOnce(pool, rule)
}

// Fixpoint compiles a recursive rule (the head table must also be the
// driver; others are rejected — use Eval) and evaluates it semi-naively
// until no value changes, on a worker pool it owns for the call. It
// returns the number of rounds.
func (d *Datalog) Fixpoint(src string) (int, error) {
	rule, err := socialite.Parse(src, d.reg)
	if err != nil {
		return 0, err
	}
	pool := par.NewPool(0)
	defer pool.Close()
	return socialite.Fixpoint(pool, rule)
}
