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

	// in is the (dst, src) view a lowered $SUM folds over, built by the
	// first evaluation that needs it and kept for the table's life.
	inOnce sync.Once
	in     *backend.Matrix
}

// NewEdgeTable wraps a CSR as an edge relation.
func NewEdgeTable(name string, g *graph.CSR) *EdgeTable {
	return &EdgeTable{name: name, g: g}
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
// t's tuples in ascending order (Transpose scatters sources in order), the
// order the tuple-at-a-time evaluator folds a key's updates in. Its
// occupancy words are built with it, for the SpMV every $SUM evaluation
// runs over it.
func (t *EdgeTable) transposed() *backend.Matrix {
	t.inOnce.Do(func() { t.in = backend.FromCSR(t.g.Transpose()).WithOccupancy() })
	return t.in
}

// NumRows reports the number of tuples.
func (t *EdgeTable) NumRows() int64 { return t.g.NumEdges() }

// VecTable is a keyed single-column relation: key → Value. It backs both
// scalar columns (RANK, DIST, DEGREE) and vector columns (the CF factor
// tables).
type VecTable struct {
	name    string
	vals    []Value
	present []bool
	count   atomic.Int64
	// col is the dense backing array of a scalar column, allocated by the
	// first FillScalars or scalarColumn: vals[k] then aliases col[k:k+1]
	// until a Put replaces it.
	col []float64
}

// NewVecTable returns an empty table over keys [0, numKeys).
func NewVecTable(name string, numKeys uint32) *VecTable {
	return &VecTable{name: name, vals: make([]Value, numKeys), present: make([]bool, numKeys)}
}

// Name implements Table.
func (t *VecTable) Name() string { return t.name }

// NumKeys reports the key-space size.
func (t *VecTable) NumKeys() uint32 { return graph.MustU32(int64(len(t.vals))) }

// Len reports how many keys are present.
func (t *VecTable) Len() int { return int(t.count.Load()) }

// Get returns the value at key, if present.
func (t *VecTable) Get(key uint32) (Value, bool) {
	if !t.present[key] {
		return nil, false
	}
	return t.vals[key], true
}

// Put assigns key ← val unconditionally.
func (t *VecTable) Put(key uint32, val Value) {
	if !t.present[key] {
		t.present[key] = true
		t.count.Add(1)
	}
	t.vals[key] = val
}

// Delete removes key.
func (t *VecTable) Delete(key uint32) {
	if t.present[key] {
		t.present[key] = false
		t.count.Add(-1)
	}
}

// FillScalars assigns key ← f(key) for every key of the table, storing the
// scalars in one dense column rather than one Value each.
func (t *VecTable) FillScalars(f func(key uint32) float64) {
	if t.col == nil {
		t.col = make([]float64, len(t.vals))
	}
	for k := range t.col {
		t.col[k] = f(uint32(k))
		t.vals[k] = t.col[k : k+1 : k+1]
		t.present[k] = true
	}
	t.count.Store(int64(len(t.col)))
}

// scalarColumn moves the table's scalars into its dense column and returns
// it: col[k] is key k's storage from here on, and absent keys read as
// fill. ok is false when a present value is not a scalar. Values found
// anywhere but their own slot are gathered into a fresh column, so a Value
// a caller Put under two keys is never overwritten before it is read.
func (t *VecTable) scalarColumn(fill float64) (col []float64, ok bool) {
	inPlace := t.col != nil
	for k := 0; inPlace && k < len(t.vals); k++ {
		v := t.vals[k]
		inPlace = !t.present[k] || (len(v) == 1 && &v[0] == &t.col[k])
	}
	if !inPlace {
		col = make([]float64, len(t.vals))
		for k, v := range t.vals {
			if !t.present[k] {
				continue
			}
			if len(v) != 1 {
				return nil, false
			}
			col[k] = v[0]
			t.vals[k] = col[k : k+1 : k+1]
		}
		t.col = col
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
			t.vals[k] = t.col[k : k+1 : k+1]
			t.count.Add(1)
		}
	}
}

// ForEach visits every present (key, value) in key order.
func (t *VecTable) ForEach(fn func(key uint32, val Value)) {
	for k, p := range t.present {
		if p {
			fn(uint32(k), t.vals[k])
		}
	}
}

// MemoryBytes estimates the table's resident size assuming width values
// per key.
func (t *VecTable) MemoryBytes() int64 {
	var b int64
	for k, p := range t.present {
		if p {
			b += 16 + int64(len(t.vals[k]))*8
		}
	}
	return b + int64(len(t.present))
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
			t.Put(key, Scalar(val.S()))
			return true
		}
		return false
	case AggCount:
		if !ok {
			t.Put(key, Scalar(val.S()))
			return true
		}
		old[0] += val.S()
		return true
	default:
		//lint:ignore panic aggregations are validated by the parser; an unknown value here is a programmer error
		panic(fmt.Sprintf("socialite: unknown aggregation %v", agg))
	}
}

// foldScalar is fold for scalar values without allocating a Value on the
// common paths.
func (t *VecTable) foldScalar(agg Agg, key uint32, x float64) bool {
	old, ok := t.Get(key)
	switch agg {
	case AggAssign:
		if ok && len(old) == 1 {
			old[0] = x
			return true
		}
		t.Put(key, Scalar(x))
		return true
	case AggSum, AggCount:
		if !ok {
			t.Put(key, Scalar(x))
			return true
		}
		old[0] += x
		return true
	case AggMin:
		if !ok {
			t.Put(key, Scalar(x))
			return true
		}
		if x < old[0] {
			old[0] = x
			return true
		}
		return false
	default:
		//lint:ignore panic aggregations are validated by the parser; an unknown value here is a programmer error
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
