package backend

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// TestPushPullEquivalence is the kernel-selection property test: a
// traversal forced all-push, one forced all-pull and the heuristic mix
// must each give the serial queue BFS's distances and level count, on
// every traversalFixtures graph, in-edge matrix and cutover and every
// testPools pool. The sources are vertex 2, the hub and a vertex with no
// out-edges.
func TestPushPullEquivalence(t *testing.T) {
	pools := testPools(t)
	for _, fx := range traversalFixtures(t) {
		m := fx.m
		sources := []uint32{2, hubOf(m), sinkOf(m)}
		if testing.Short() && fx.large {
			sources = sources[1:2] // -short (the race runs) keeps the hub
		}
		for _, src := range sources {
			want := refBFS(m, src)
			wantLevels := int(slices.Max(want)) + 1
			fx.each(t, pools, func(tv *Traversal, what string) {
				dist := make([]int32, m.NumRows)
				for i := range dist {
					dist[i] = -1
				}
				dist[src] = 0
				levels := tv.Run(dist, src)
				if wrong := countDiff(dist, want); wrong > 0 || levels != wantLevels {
					t.Fatalf("%s source=%d: %d distances wrong, %d levels (want %d)", what, src, wrong, levels, wantLevels)
				}
			})
		}
	}
}

// TestStepMatchesSerialExpansion pins the level step against a serial
// reference, on TestPushPullEquivalence's graphs, pools and kernel
// choices, from the hub: each Step must claim exactly the vertices the
// serial first-encounter expansion of the same frontier finds unclaimed.
// A level forced to push serially returns them in that discovery order; a
// level forced to pull, or to push on the pool, in ascending order; an
// auto level in one of the two. The claims are the next level's frontier
// on both sides, and the step ends where the reference does.
func TestStepMatchesSerialExpansion(t *testing.T) {
	pools := testPools(t)
	for _, fx := range traversalFixtures(t) {
		m := fx.m
		src := hubOf(m)
		fx.each(t, pools, func(tv *Traversal, what string) {
			pushes := tv.forceDir == 0 || tv.in == nil
			claimed := make([]bool, m.NumRows)
			claimed[src] = true
			tv.Claim(src)
			frontier := []uint32{src}
			for level := 1; len(frontier) > 0; level++ {
				serial := m.NNZ() < tv.serialEdges || len(frontier) < tv.serialFrontier
				var want []uint32
				for _, v := range frontier {
					for _, c := range m.Cols[m.Offsets[v]:m.Offsets[v+1]] {
						if !claimed[c] {
							claimed[c] = true
							want = append(want, c)
						}
					}
				}
				got := tv.Step(frontier, nil)
				inOrder, ascending := slices.Equal(got, want), slices.IsSorted(got)
				switch {
				case !slices.Equal(sortedCopy(got), sortedCopy(want)):
					t.Fatalf("%s level %d: claimed %d vertices, the serial expansion %d, or other ones", what, level, len(got), len(want))
				case pushes && serial && !inOrder:
					t.Fatalf("%s level %d: a serial push is not in discovery order", what, level)
				case !(pushes && serial) && tv.forceDir >= 0 && !ascending:
					t.Fatalf("%s level %d: a parallel or pull level is not ascending", what, level)
				case !inOrder && !ascending:
					t.Fatalf("%s level %d: neither discovery nor ascending order", what, level)
				}
				frontier = got
			}
		})
	}
}

func sortedCopy(s []uint32) []uint32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// traversalFixture is one graph the traversal property tests run on, with
// the in-edge matrices its kernels may pull through and the serial
// cutovers they run under.
type traversalFixture struct {
	name     string
	m        *Matrix
	large    bool
	ins      []*Matrix
	cutovers []int64
}

// traversalFixtures are symmetric and directed RMATs on both sides of the
// 2^19-edge cutover, and a pair whose n is no multiple of 64 (every RMAT
// has isolated vertices). Pulls read the graph itself when it is
// symmetric, and its transpose or nothing when it is not. Graphs under the
// cutover also run with it at 0, on the pool.
func traversalFixtures(t *testing.T) []traversalFixture {
	t.Helper()
	var out []traversalFixture
	for _, fx := range []struct {
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
	} {
		m := FromCSR(fx.g)
		if fx.large != (m.NNZ() >= serialGraphEdges) {
			t.Fatalf("%s: %d edges on the wrong side of the cutover", fx.name, m.NNZ())
		}
		f := traversalFixture{name: fx.name, m: m, large: fx.large, ins: []*Matrix{m}, cutovers: []int64{serialGraphEdges}}
		if !fx.sym {
			f.ins = []*Matrix{FromCSR(fx.g.Transpose()), nil}
		}
		if !fx.large {
			f.cutovers = append(f.cutovers, 0)
		}
		out = append(out, f)
	}
	return out
}

// each calls run with a fresh traversal of fx for every pool, in-edge
// matrix, cutover and forced direction (push, pull, auto; a traversal
// with no in-edge matrix only as forced pull, which must push).
func (fx traversalFixture) each(t *testing.T, pools []*par.Pool, run func(tv *Traversal, what string)) {
	for pi, pool := range pools {
		for _, in := range fx.ins {
			for _, cut := range fx.cutovers {
				for _, dir := range []int{0, 1, -1} {
					if in == nil && dir != 1 {
						continue
					}
					tv := NewDirectedTraversal(pool, fx.m, in, "backend.bfs.level", nil)
					tv.serialEdges = cut
					if cut == 0 {
						tv.serialFrontier = 0
					}
					tv.forceDir = dir
					run(tv, fmt.Sprintf("%s pool=%d in=%v cutover=%d dir=%d", fx.name, pi, in != nil, cut, dir))
				}
			}
		}
	}
}

// testPools are pools of 1 to 4 workers, closed when the test ends, plus
// a 1-worker pool whose team is held, so every dispatch on it takes the
// inline RunDynamic path.
func testPools(t *testing.T) []*par.Pool {
	pools := []*par.Pool{par.NewPool(1), par.NewPool(2), par.NewPool(3), par.NewPool(4)}
	for _, p := range pools {
		t.Cleanup(p.Close)
	}
	return append(pools, heldPool(t))
}

// heldPool returns a 1-worker pool whose team a blocked dispatch holds
// until the test ends, so every dispatch on it runs on its caller.
func heldPool(t *testing.T) *par.Pool {
	pool := par.NewPool(1)
	held := &blockingRunner{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		pool.RunStatic(held, par.EvenSplits(4, 1))
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
		pool := par.NewPool(workers)
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
// property: whatever SumVecMul.RunChunk does inside a chunk, MapInto
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
			pool := par.NewPool(workers)
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
			pool := par.NewPool(workers)
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
