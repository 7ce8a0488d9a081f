// Package socialite reimplements SociaLite's programming model (paper §3):
// graph algorithms are Datalog rules over horizontally sharded tables,
// with aggregation functions ($SUM, $MIN, $INC) in rule heads, tail-nested
// edge tables (effectively CSR), and semi-naive evaluation for recursive
// rules. Distributed runs shard tables by key range; remote head updates
// are the data transfers (the paper's second PageRank variant, where body
// joins are local and only the head update crosses the network).
package socialite

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// Scalar returns x: a tuple attribute is a float64. Its caller is the
// benchmark's Datalog replay (bench/layers.go), which seeds a table with it.
func Scalar(x float64) float64 { return x }

// Table is a relation the rule engine can enumerate and index.
type Table interface {
	Name() string
}

// EdgeTable is a tail-nested two-or-three-column relation (src, dst[,
// weight]) — SociaLite's representation of adjacency, "effectively
// implementing a CSR format" (§3.1).
type EdgeTable struct {
	name string
	g    *graph.CSR

	// in is the (dst, src) view: supplied by WithInEdges, or built by the
	// first lowered $SUM evaluation that needs it and kept for the table's
	// life. A recursive $MIN lowering pulls through it when it is there.
	inOnce sync.Once
	in     *backend.Matrix
}

// NewEdgeTable wraps a CSR as an edge relation.
func NewEdgeTable(name string, g *graph.CSR) *EdgeTable {
	return &EdgeTable{name: name, g: g}
}

// WithInEdges gives the relation its (dst, src) view, in: g's transpose
// with ascending rows, or g's own on a symmetric graph. Recursive $MIN
// rounds over the table then pull through it; without it they only push.
// Call it before the table is shared; it returns t.
func (t *EdgeTable) WithInEdges(in *backend.Matrix) *EdgeTable {
	t.inOnce.Do(func() { t.in = in })
	return t
}

// Name implements Table.
func (t *EdgeTable) Name() string { return t.name }

// Neighbors enumerates dst ids for src.
func (t *EdgeTable) Neighbors(src uint32) []uint32 { return t.g.Neighbors(src) }

// Weights returns the weight column for src's rows (nil if two-column).
func (t *EdgeTable) Weights(src uint32) []float32 { return t.g.EdgeWeights(src) }

// Contains reports whether (src,dst) is present (requires sorted
// adjacency for the binary search).
func (t *EdgeTable) Contains(src, dst uint32) bool { return t.g.HasEdge(src, dst) }

// NumKeys reports the size of the src key space.
func (t *EdgeTable) NumKeys() uint32 { return t.g.NumVertices }

// transposed returns the relation keyed by dst: row t lists the sources of
// t's tuples in ascending order (graph.CSR.In), the order the
// tuple-at-a-time evaluator folds a key's updates in. Its occupancy words
// are built with it, for the SpMV every $SUM evaluation runs over it.
func (t *EdgeTable) transposed() *backend.Matrix {
	t.inOnce.Do(func() { t.in = backend.FromCSR(t.g.In()).WithOccupancy() })
	return t.in
}

// VecTable is a keyed single-column relation: key → float64, held in one
// dense column (RANK, DIST, DEGREE).
type VecTable struct {
	name    string
	present []bool
	count   atomic.Int64
	col     []float64
}

// NewVecTable returns an empty table over keys [0, numKeys).
func NewVecTable(name string, numKeys uint32) *VecTable {
	return &VecTable{name: name, present: make([]bool, numKeys), col: make([]float64, numKeys)}
}

// Name implements Table.
func (t *VecTable) Name() string { return t.name }

// NumKeys reports the key-space size.
func (t *VecTable) NumKeys() uint32 { return graph.MustU32(int64(len(t.col))) }

// Len reports how many keys are present.
func (t *VecTable) Len() int { return int(t.count.Load()) }

// Get returns the value at key, if present.
func (t *VecTable) Get(key uint32) (float64, bool) {
	if !t.present[key] {
		return 0, false
	}
	return t.col[key], true
}

// Put assigns key ← x unconditionally.
func (t *VecTable) Put(key uint32, x float64) {
	if !t.present[key] {
		t.present[key] = true
		t.count.Add(1)
	}
	t.col[key] = x
}

// putScalars assigns key ← x for every key of keys, none of them present,
// counting them in one step.
func (t *VecTable) putScalars(keys []uint32, x float64) {
	for _, k := range keys {
		t.present[k] = true
		t.col[k] = x
	}
	t.count.Add(int64(len(keys)))
}

// FillScalars assigns key ← f(key) for every key of the table.
func (t *VecTable) FillScalars(f func(key uint32) float64) {
	for k := range t.col {
		t.col[k] = f(uint32(k))
		t.present[k] = true
	}
	t.count.Store(int64(len(t.col)))
}

// scalarColumn returns the table's dense column, in which absent keys now
// read as fill; col[k] is key k's storage.
func (t *VecTable) scalarColumn(fill float64) []float64 {
	if t.Len() < len(t.col) {
		for k, p := range t.present {
			if !p {
				t.col[k] = fill
			}
		}
	}
	return t.col
}

// adoptColumn makes every absent key that has(key) reports present, with
// the value its slot of the dense column holds.
func (t *VecTable) adoptColumn(has func(key int) bool) {
	for k, p := range t.present {
		if !p && has(k) {
			t.present[k] = true
			t.count.Add(1)
		}
	}
}

// ForEach visits every present (key, value) in key order.
func (t *VecTable) ForEach(fn func(key uint32, val float64)) {
	for k, p := range t.present {
		if p {
			fn(uint32(k), t.col[k])
		}
	}
}

// Agg is a head aggregation function.
type Agg int

const (
	// AggAssign overwrites (plain head, no aggregation).
	AggAssign Agg = iota
	// AggSum is $SUM.
	AggSum
	// AggMin is $MIN. Fold reports whether the value changed,
	// which drives semi-naive deltas.
	AggMin
	// AggCount is $INC(1).
	AggCount
)

// String names the aggregation in SociaLite's $FUNC notation.
func (a Agg) String() string {
	switch a {
	case AggAssign:
		return "assign"
	case AggSum:
		return "$SUM"
	case AggMin:
		return "$MIN"
	case AggCount:
		return "$INC"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// fold merges x into the table at key per the aggregation; it reports
// whether the stored value changed.
func (t *VecTable) fold(agg Agg, key uint32, x float64) bool {
	switch agg {
	case AggAssign:
		t.Put(key, x)
		return true
	case AggSum, AggCount:
		if !t.present[key] {
			t.Put(key, x)
			return true
		}
		t.col[key] += x
		return true
	case AggMin:
		if !t.present[key] || x < t.col[key] {
			t.Put(key, x)
			return true
		}
		return false
	default:
		panic(fmt.Sprintf("socialite: unknown aggregation %v", agg))
	}
}
