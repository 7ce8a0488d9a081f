package combblas

import (
	"math/rand"
	"reflect"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/graph"
)

func randomPattern(t *testing.T, seed int64, n uint32, m int) *SpMat[struct{}] {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(r.Intn(int(n))), Dst: uint32(r.Intn(int(n)))}
	}
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(graph.BuildOptions{Dedup: true, SortAdjacency: true})
	if err != nil {
		t.Fatal(err)
	}
	return FromGraph(g)
}

// transpose returns the matrix with rows and columns exchanged: the dense
// reference's orientation in TestSpMSpVMatchesDenseSpMV. The engine builds
// its Aᵀ from the graph's in-edge view instead.
func (m *SpMat[T]) transpose() *SpMat[T] {
	offsets := make([]int64, m.NumCols+1)
	for _, c := range m.Cols {
		offsets[c+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	cols := make([]uint32, len(m.Cols))
	vals := make([]T, len(m.Vals))
	cursor := make([]int64, m.NumCols)
	for r := uint32(0); r < m.NumRows; r++ {
		lo, hi := m.Offsets[r], m.Offsets[r+1]
		for i := lo; i < hi; i++ {
			c := m.Cols[i]
			pos := offsets[c] + cursor[c]
			cols[pos] = r
			vals[pos] = m.Vals[i]
			cursor[c]++
		}
	}
	return &SpMat[T]{NumRows: m.NumCols, NumCols: m.NumRows, Offsets: offsets, Cols: cols, Vals: vals}
}

func newTestGrid(t *testing.T, nodes int, n uint32) *Grid {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: nodes, Comm: cluster.MPI()})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(c, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistSpMVMatchesLocal(t *testing.T) {
	const n = 200
	m := randomPattern(t, 3, n, 1500)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) + 0.25
	}
	want, err := SpMV(m, x, PlusTimesF64())
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 4, 9} {
		grid := newTestGrid(t, nodes, n)
		got, err := DistSpMV(grid, m, x, PlusTimesF64(), 8, 1.0)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for i := range want {
			d := want[i] - got[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-9 {
				t.Fatalf("nodes=%d: y[%d] = %v, want %v", nodes, i, got[i], want[i])
			}
		}
		if nodes > 1 && grid.C.Report().BytesSent == 0 {
			t.Errorf("nodes=%d: no SpMV traffic", nodes)
		}
	}
}

func TestDistSpMVShapeError(t *testing.T) {
	m := randomPattern(t, 3, 50, 100)
	grid := newTestGrid(t, 4, 50)
	if _, err := DistSpMV(grid, m, make([]float64, 7), PlusTimesF64(), 8, 1.0); err == nil {
		t.Error("accepted mis-sized vector")
	}
}

// SpMSpV is the serial oracle DistSpMSpV is checked against: the boolean
// product y = xᵀA for a sparse input vector (an index list over rows of
// A), returning the deduplicated index list of nonzero outputs. The
// or-and fold emits each distinct column once, in first-encounter order,
// and leaves marks clean for the next call.
func SpMSpV(a *SpMat[struct{}], x []uint32, marks []bool) []uint32 {
	var out []uint32
	for _, v := range x {
		cols, _ := a.Row(v)
		for _, c := range cols {
			if !marks[c] {
				marks[c] = true
				out = append(out, c)
			}
		}
	}
	for _, c := range out {
		marks[c] = false
	}
	return out
}

// OrAndBool is the boolean semiring for reachability frontiers: the dense
// oracle SpMSpV's or-and fold is checked against.
func OrAndBool() Semiring[struct{}, bool, bool] {
	return Semiring[struct{}, bool, bool]{
		Mul:  func(_ struct{}, x bool) bool { return x },
		Add:  func(p, q bool) bool { return p || q },
		Zero: func() bool { return false },
	}
}

func TestSpMSpVMatchesDenseSpMV(t *testing.T) {
	const n = 300
	m := randomPattern(t, 5, n, 2500)
	marks := make([]bool, n)
	frontier := []uint32{3, 77, 150}
	got := SpMSpV(m, frontier, marks)
	// Reference: dense boolean SpMV over the transpose orientation.
	x := make([]bool, n)
	for _, v := range frontier {
		x[v] = true
	}
	want, err := SpMV(m.transpose(), x, OrAndBool())
	if err != nil {
		t.Fatal(err)
	}
	gotSet := map[uint32]bool{}
	for _, c := range got {
		if gotSet[c] {
			t.Fatalf("SpMSpV emitted duplicate %d", c)
		}
		gotSet[c] = true
	}
	for i, w := range want {
		if w != gotSet[uint32(i)] {
			t.Fatalf("vertex %d: SpMSpV=%v dense=%v", i, gotSet[uint32(i)], w)
		}
	}
	// Marks must be fully cleared for reuse.
	for i, mark := range marks {
		if mark {
			t.Fatalf("marks[%d] left set", i)
		}
	}
}

func TestDistSpMSpVMatchesLocal(t *testing.T) {
	const n = 250
	m := randomPattern(t, 6, n, 2000)
	marks := make([]bool, n)
	frontier := []uint32{0, 100, 249}
	want := SpMSpV(m, frontier, marks)
	wantSet := map[uint32]bool{}
	for _, c := range want {
		wantSet[c] = true
	}
	grid := newTestGrid(t, 4, n)
	got, err := DistSpMSpV(grid, m, frontier, marks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("DistSpMSpV produced %d vertices, want %d", len(got), len(want))
	}
	for _, c := range got {
		if !wantSet[c] {
			t.Fatalf("unexpected vertex %d", c)
		}
	}
}

func TestDistTriangleCountMatchesSerial(t *testing.T) {
	g := fixtureAcyclic(t)
	a := FromGraph(g)
	// The serial reference is the pooled product, which must not depend on
	// the pool: same matrix layout and same count at sizes 1 and 4.
	var ref *Product
	var want int64
	for _, pool := range testPools(t) {
		a2, err := SpGEMM(pool, a, a)
		if err != nil {
			t.Fatal(err)
		}
		count, err := EWiseMultSum(pool, a, a2)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, want = a2, count
		} else if count != want || !reflect.DeepEqual(a2, ref) {
			t.Fatalf("%d workers: count %d and A² differ from 1 worker's (count %d)", pool.Workers(), count, want)
		}
	}
	for _, nodes := range []int{1, 4, 9} {
		grid := newTestGrid(t, nodes, g.NumVertices)
		got, err := DistTriangleCount(grid, a)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if got != want {
			t.Errorf("nodes=%d: count %d, want %d", nodes, got, want)
		}
	}
}

func TestTransposeRectangular(t *testing.T) {
	// 2×4 matrix with one row.
	m := &SpMat[float32]{
		NumRows: 2, NumCols: 4,
		Offsets: []int64{0, 3, 3},
		Cols:    []uint32{0, 2, 3},
		Vals:    []float32{1, 2, 3},
	}
	mt := m.transpose()
	if mt.NumRows != 4 || mt.NumCols != 2 {
		t.Fatalf("transpose shape %d×%d", mt.NumRows, mt.NumCols)
	}
	cols, vals := mt.Row(2)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 2 {
		t.Errorf("mt.Row(2) = %v/%v", cols, vals)
	}
}

func TestGridRequiresSquare(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(c, 100); err == nil {
		t.Error("accepted non-square node count")
	}
}
