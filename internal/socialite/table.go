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
	"math"
	"sync"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// Value is a tuple attribute: a scalar or a K-vector (SociaLite stores
// collaborative filtering's length-K vectors in table columns, §3.2).
type Value []float64

// Scalar wraps a float64 as a Value.
func Scalar(x float64) Value { return Value{x} }

// S returns the scalar view of a value.
func (v Value) S() float64 { return v[0] }

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

// VecTable is a keyed single-column relation: key → Value. It backs both
// scalar columns (RANK, DIST, DEGREE) and vector columns (the CF factor
// tables). Scalars live in one dense column, so a scalar-only table holds
// no Value per key and no []Value array at all.
type VecTable struct {
	name    string
	present []bool
	count   atomic.Int64
	// col holds the scalars: a Value read from it aliases the key's slot.
	col []float64
	// vals holds the vectors (nil elsewhere), made by the first vector Put.
	vals []Value
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
func (t *VecTable) Get(key uint32) (Value, bool) {
	if !t.present[key] {
		return nil, false
	}
	return t.value(key), true
}

// value returns present key's value: its vector, or its column slot.
func (t *VecTable) value(key uint32) Value {
	if t.vals != nil && t.vals[key] != nil {
		return t.vals[key]
	}
	return t.col[key : key+1 : key+1]
}

// Put assigns key ← val unconditionally. A scalar is copied into the
// table's column; a vector is stored as given.
func (t *VecTable) Put(key uint32, val Value) {
	if len(val) == 1 {
		t.putScalar(key, val[0])
		return
	}
	t.materialize()
	t.mark(key)
	t.vals[key] = val
}

// putScalar assigns key ← x in the column, allocating nothing.
func (t *VecTable) putScalar(key uint32, x float64) {
	t.mark(key)
	t.col[key] = x
	if t.vals != nil {
		t.vals[key] = nil
	}
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

// mark makes key present.
func (t *VecTable) mark(key uint32) {
	if !t.present[key] {
		t.present[key] = true
		t.count.Add(1)
	}
}

// materialize makes the table's []Value array, so no vector Put has to.
// The sharded evaluator calls it before its shards fold concurrently: the
// array is one allocation every shard's Puts would otherwise race to make.
func (t *VecTable) materialize() {
	if t.vals == nil {
		t.vals = make([]Value, len(t.col))
	}
}

// FillScalars assigns key ← f(key) for every key of the table.
func (t *VecTable) FillScalars(f func(key uint32) float64) {
	for k := range t.col {
		t.col[k] = f(uint32(k))
		t.present[k] = true
	}
	clear(t.vals)
	t.count.Store(int64(len(t.col)))
}

// scalarColumn returns the table's dense column, in which absent keys now
// read as fill; col[k] is key k's storage. ok is false when a present
// value is a vector.
func (t *VecTable) scalarColumn(fill float64) (col []float64, ok bool) {
	for _, v := range t.vals {
		if v != nil {
			return nil, false
		}
	}
	if t.Len() < len(t.col) {
		for k, p := range t.present {
			if !p {
				t.col[k] = fill
			}
		}
	}
	return t.col, true
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
func (t *VecTable) ForEach(fn func(key uint32, val Value)) {
	for k, p := range t.present {
		if p {
			fn(uint32(k), t.value(uint32(k)))
		}
	}
}

// Agg is a head aggregation function.
type Agg int

const (
	// AggAssign overwrites (plain head, no aggregation).
	AggAssign Agg = iota
	// AggSum is $SUM — element-wise for vectors.
	AggSum
	// AggMin is $MIN (scalars). Fold reports whether the value changed,
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

// fold merges val into the table at key per the aggregation; it reports
// whether the stored value changed.
func (t *VecTable) fold(agg Agg, key uint32, val Value) bool {
	old, ok := t.Get(key)
	switch agg {
	case AggAssign:
		t.Put(key, val)
		return true
	case AggSum:
		if !ok {
			cp := make(Value, len(val))
			copy(cp, val)
			t.Put(key, cp)
			return true
		}
		for i := range old {
			old[i] += val[i]
		}
		return true
	case AggMin:
		if !ok || val.S() < old.S() {
			t.putScalar(key, val.S())
			return true
		}
		return false
	case AggCount:
		if !ok {
			t.putScalar(key, val.S())
			return true
		}
		old[0] += val.S()
		return true
	default:
		panic(fmt.Sprintf("socialite: unknown aggregation %v", agg))
	}
}

// foldScalar is fold for scalar values, allocating nothing.
func (t *VecTable) foldScalar(agg Agg, key uint32, x float64) bool {
	old, ok := t.Get(key)
	switch agg {
	case AggAssign:
		t.putScalar(key, x)
		return true
	case AggSum, AggCount:
		if !ok {
			t.putScalar(key, x)
			return true
		}
		old[0] += x
		return true
	case AggMin:
		if !ok {
			t.putScalar(key, x)
			return true
		}
		if x < old[0] {
			old[0] = x
			return true
		}
		return false
	default:
		panic(fmt.Sprintf("socialite: unknown aggregation %v", agg))
	}
}

// isNaN guards against propagating NaNs out of user expressions.
func isNaN(v Value) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}
