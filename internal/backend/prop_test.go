package backend

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphmaze/internal/graph"
)

// TestPushPullEquivalence is the kernel-selection property test: a
// traversal forced all-push, one forced all-pull and the heuristic mix
// must each give the serial queue BFS's distances and level count. The
// graphs are symmetric and directed RMATs on both sides of the 2^19-edge
// cutover, and a pair whose n is no multiple of 64 (every RMAT has
// isolated vertices); the sources are vertex 2, the hub and a vertex with
// no out-edges. Pools run 1 to 4 workers, plus a 1-worker pool whose team is
// held, so every dispatch takes the inline RunDynamic path. Graphs under
// the cutover also run with it at 0, on the pool. Pull levels read the
// graph itself when it is symmetric and its transpose when it is not; a
// directed traversal with no in-edge matrix must fall back to push when
// pull is forced.
func TestPushPullEquivalence(t *testing.T) {
	fixtures := []struct {
		name       string
		g          *graph.CSR
		sym, large bool
	}{
		{"sym-10", testGraph(t, 10, 100, true), true, false},
		{"dir-10", testGraph(t, 10, 101, false), false, false},
		{"sym-odd", rmatGraph(t, 1000, 10, 102, true), true, false},
		{"dir-odd", rmatGraph(t, 1000, 10, 103, false), false, false},
		{"sym-16", testGraph(t, 16, 104, true), true, true},
		{"dir-17", testGraph(t, 17, 105, false), false, true},
	}
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(3), NewPool(4), heldPool(t)}
	for _, p := range pools[:4] {
		defer p.Close()
	}
	for _, fx := range fixtures {
		m := FromCSR(fx.g)
		ins := []*Matrix{m}
		if !fx.sym {
			ins = []*Matrix{FromCSR(fx.g.Transpose()), nil}
		}
		if fx.large != (m.NNZ() >= serialGraphEdges) {
			t.Fatalf("%s: %d edges on the wrong side of the cutover", fx.name, m.NNZ())
		}
		cutovers := []int64{serialGraphEdges}
		if !fx.large {
			cutovers = append(cutovers, 0)
		}
		sources := []uint32{2, hubOf(m), sinkOf(m)}
		if testing.Short() && fx.large {
			sources = sources[1:2] // -short (the race runs) keeps the hub
		}
		for _, src := range sources {
			want := refBFS(m, src)
			wantLevels := int(slices.Max(want)) + 1
			for pi, pool := range pools {
				for _, in := range ins {
					for _, cut := range cutovers {
						for _, dir := range []int{0, 1, -1} {
							if in == nil && dir != 1 {
								continue
							}
							tv := NewDirectedTraversal(pool, m, in, "backend.bfs.level", nil)
							tv.serialEdges = cut
							if cut == 0 {
								tv.serialFrontier = 0
							}
							tv.forceDir = dir
							dist := make([]int32, m.NumRows)
							for i := range dist {
								dist[i] = -1
							}
							dist[src] = 0
							levels := tv.Run(dist, src)
							if wrong := countDiff(dist, want); wrong > 0 || levels != wantLevels {
								t.Fatalf("%s source=%d pool=%d in=%v cutover=%d dir=%d: %d distances wrong, %d levels (want %d)",
									fx.name, src, pi, in != nil, cut, dir, wrong, levels, wantLevels)
							}
						}
					}
				}
			}
		}
	}
}

// heldPool returns a 1-worker pool whose team a blocked dispatch holds
// until the test ends, so every dispatch on it runs on its caller.
func heldPool(t *testing.T) *Pool {
	pool := NewPool(1)
	held := &blockingRunner{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		pool.RunStatic(held, evenSplits(4, 1))
		close(done)
	}()
	<-held.entered
	t.Cleanup(func() {
		close(held.release)
		<-done
		pool.Close()
	})
	return pool
}

// hubOf returns m's highest-degree row; sinkOf its first empty one (0 when
// none is).
func hubOf(m *Matrix) uint32 {
	var hub uint32
	for v := uint32(0); v < m.NumRows; v++ {
		if m.Offsets[v+1]-m.Offsets[v] > m.Offsets[hub+1]-m.Offsets[hub] {
			hub = v
		}
	}
	return hub
}

func sinkOf(m *Matrix) uint32 {
	for v := uint32(0); v < m.NumRows; v++ {
		if m.Offsets[v+1] == m.Offsets[v] {
			return v
		}
	}
	return 0
}

func countDiff(got, want []int32) int {
	wrong := 0
	for i := range want {
		if got[i] != want[i] {
			wrong++
		}
	}
	return wrong
}

// TestSpMVWorkerCountInvariance pins the determinism claim for the dense
// kernels: bit-identical output at every worker count, because each row's
// fold is serial and rows are partitioned, never split.
func TestSpMVWorkerCountInvariance(t *testing.T) {
	g := testGraph(t, 11, 77, false)
	m := FromCSR(g)
	x := randVec(g.NumVertices, 8)

	var want []float64
	for _, workers := range []int{1, 2, 4, 7} {
		pool := NewPool(workers)
		k := NewSumVecMul(pool, m)
		y := make([]float64, g.NumVertices)
		k.MapInto(y, x, func(r uint32, acc float64) float64 { return 0.3 + 0.7*acc })
		pool.Close()
		if want == nil {
			want = y
			continue
		}
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] differs from 1-worker result", workers, i)
			}
		}
	}
}

// patternMatrix builds an n-row pattern matrix over ncols columns whose
// row r stores length(r) ascending random columns (repeats allowed: the
// fold must follow stored order whatever the columns are).
func patternMatrix(rng *rand.Rand, n, ncols int, length func(r int) int) *Matrix {
	m := &Matrix{NumRows: uint32(n), Offsets: make([]int64, n+1)}
	for r := 0; r < n; r++ {
		row := make([]uint32, length(r))
		for i := range row {
			row[i] = uint32(rng.Intn(ncols))
		}
		slices.Sort(row)
		m.Cols = append(m.Cols, row...)
		m.Offsets[r+1] = int64(len(m.Cols))
	}
	return m
}

// TestSumVecMulMatchesRowAtATimeFold is the kernel's order contract as a
// property: whatever SumVecMul.runChunk does inside a chunk, MapInto
// with and without a post transform equals the one-row-at-a-time, left-to-right reference fold
// bit-for-bit, at every worker count, on the row shapes that stress a
// chunked kernel — empty rows, a single row, row counts that leave an odd
// remainder per chunk, and a hub row longer than all others combined
// (which drags the edge-balanced chunk bounds next to it).
func TestSumVecMulMatchesRowAtATimeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	type shape struct {
		name string
		m    *Matrix
	}
	shapes := []shape{
		{"all-empty", patternMatrix(rng, 9, 5, func(int) int { return 0 })},
		{"single-row", patternMatrix(rng, 1, 40, func(int) int { return 9 })},
		{"half-empty", patternMatrix(rng, 101, 64, func(int) int { return rng.Intn(2) * (1 + rng.Intn(5)) })},
		{"hub", patternMatrix(rng, 41, 300, func(r int) int {
			if r == 17 {
				return 500
			}
			return rng.Intn(4)
		})},
	}
	for i := 0; i < 6; i++ {
		n := 1 + rng.Intn(200)
		shapes = append(shapes, shape{fmt.Sprintf("random-%d", i), patternMatrix(rng, n, 1+rng.Intn(300), func(int) int {
			return int(math.Floor(math.Exp(rng.Float64()*4))) - 1 // 0..53, skewed short
		})})
	}
	post := func(r uint32, sum float64) float64 { return float64(r) - 0.7*sum }
	for _, sh := range shapes {
		name, m := sh.name, sh.m
		ncols := 1
		for _, c := range m.Cols {
			ncols = max(ncols, int(c)+1)
		}
		x := make([]float64, ncols)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp(rng.Float64()*20-10) // mixed signs and magnitudes: order shows
		}
		want := refSpMVSum(m, x)
		for _, workers := range []int{1, 2, 3, 4, 7} {
			pool := NewPool(workers)
			k := NewSumVecMul(pool, m)
			raw := make([]float64, m.NumRows)
			mapped := make([]float64, m.NumRows)
			k.MapInto(raw, x, nil)
			k.MapInto(mapped, x, post)
			pool.Close()
			for r := range want {
				if math.Float64bits(raw[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%s workers=%d: raw row %d = %v, want %v", name, workers, r, raw[r], want[r])
				}
				if w := post(uint32(r), want[r]); math.Float64bits(mapped[r]) != math.Float64bits(w) {
					t.Fatalf("%s workers=%d: MapInto row %d = %v, want %v", name, workers, r, mapped[r], w)
				}
			}
		}
	}
}

// TestSumVecMulOccupancyEdges pins the occupancy-word walk where word
// arithmetic can go wrong: row counts on both sides of a word edge (0, 1,
// 63, 64, 65, and 130, whose final word holds two rows), each with
// randomly half-empty rows and with every row empty, whole words of empty
// rows between occupied ones, and a last word whose only occupied row is
// the matrix's last. At workers 1, 2, 3 and 7 — over the kernel's own
// occupancy words and over ones the matrix built with WithOccupancy —
// AffineInto, MapInto and AddInto equal the serial one-row-at-a-time fold
// bit for bit. Outputs start as NaN, so a row the walk skips shows.
func TestSumVecMulOccupancyEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const ncols = 50
	type shape struct {
		name string
		m    *Matrix
	}
	var shapes []shape
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		shapes = append(shapes,
			shape{fmt.Sprintf("n=%d/half-empty", n), patternMatrix(rng, n, ncols, func(int) int { return rng.Intn(2) * (1 + rng.Intn(6)) })},
			shape{fmt.Sprintf("n=%d/all-empty", n), patternMatrix(rng, n, ncols, func(int) int { return 0 })})
	}
	shapes = append(shapes,
		shape{"empty-words", patternMatrix(rng, 300, ncols, func(r int) int {
			if r >= 64 && r < 192 {
				return 0 // words 1 and 2 are all zero bits
			}
			return 1 + rng.Intn(4)
		})},
		shape{"last-row-only", patternMatrix(rng, 129, ncols, func(r int) int {
			if r == 128 {
				return 3
			}
			return 0
		})})

	const a, b = 0.15, 0.85
	post := func(r uint32, sum float64) float64 { return float64(r) - 0.7*sum }
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	for _, sh := range shapes {
		m := sh.m
		n := int(m.NumRows)
		x := make([]float64, ncols)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp(rng.Float64()*20-10)
		}
		seed := make([]float64, n)
		for i := range seed {
			seed[i] = rng.NormFloat64()
		}
		if n > 0 {
			seed[n-1] = math.Copysign(0, -1) // AddInto must keep an empty row's −0
		}
		sums := refSpMVSum(m, x)
		shared := (&Matrix{NumRows: m.NumRows, Offsets: m.Offsets, Cols: m.Cols}).WithOccupancy()
		for _, workers := range []int{1, 2, 3, 7} {
			pool := NewPool(workers)
			for _, mm := range []*Matrix{m, shared} {
				k := NewSumVecMul(pool, mm)
				affine, mapped, raw := nanVec(n), nanVec(n), nanVec(n)
				added := append([]float64(nil), seed...)
				k.AffineInto(affine, x, a, b)
				k.MapInto(mapped, x, post)
				k.MapInto(raw, x, nil)
				k.AddInto(added, x)
				for r := 0; r < n; r++ {
					acc := seed[r]
					for _, c := range m.Cols[m.Offsets[r]:m.Offsets[r+1]] {
						acc += x[c]
					}
					switch {
					case !same(affine[r], a+b*sums[r]):
						t.Fatalf("%s workers=%d: AffineInto row %d = %v, want %v", sh.name, workers, r, affine[r], a+b*sums[r])
					case !same(mapped[r], post(uint32(r), sums[r])):
						t.Fatalf("%s workers=%d: MapInto row %d = %v, want %v", sh.name, workers, r, mapped[r], post(uint32(r), sums[r]))
					case !same(raw[r], sums[r]):
						t.Fatalf("%s workers=%d: MapInto(nil) row %d = %v, want %v", sh.name, workers, r, raw[r], sums[r])
					case !same(added[r], acc):
						t.Fatalf("%s workers=%d: AddInto row %d = %v, want %v", sh.name, workers, r, added[r], acc)
					}
				}
			}
			pool.Close()
		}
	}
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}
