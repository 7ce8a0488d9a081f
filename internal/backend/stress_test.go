package backend

import (
	"slices"
	"sync"
	"testing"
	"time"

	"graphmaze/internal/obs"
)

// TestPoolStressRace hammers one shared pool from several goroutines while
// each kernel fans work out over the pool. Concurrent dispatches mostly
// find the team busy and run on their own caller, so every kind of kernel
// here — a static SpMV, a static Dense pass, a dynamic Sweep with
// per-worker scratch, and BFS — runs both ways, and each must stay bit for
// bit equal to its serial reference. Run under -race (CI does): two chunks
// of one dispatch writing the same slot or lane at once would be a report.
// -short keeps the iteration count small there.
func TestPoolStressRace(t *testing.T) {
	g := testGraph(t, 9, 55, true)
	m := FromCSR(g)
	n := int(g.NumVertices)
	pool := NewPool(4)
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.SetRegistry(reg)

	iters := 50
	if testing.Short() {
		iters = 10
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := randVec(g.NumVertices, int64(c))
			want := refSpMVSum(m, x)
			wantScaled := make([]float64, n)
			for i, v := range x {
				wantScaled[i] = 0.15 + 0.85*v
			}

			y := make([]float64, n)
			k := NewSumVecMul(pool, m)
			scaled := make([]float64, n)
			dense := NewDense(pool, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					scaled[i] = 0.15 + 0.85*x[i]
				}
			})
			// The row fold as a dynamic pass: each chunk folds its rows
			// and tallies them into its worker's lane with a plain add.
			folded := make([]float64, n)
			lanes := make([]int, pool.Workers())
			sweep := NewSweep(pool, n, 64, func(w, lo, hi int) {
				for r := lo; r < hi; r++ {
					sum := 0.0
					for _, col := range m.Cols[m.Offsets[r]:m.Offsets[r+1]] {
						sum += x[col]
					}
					folded[r] = sum
				}
				lanes[w] += hi - lo
			})
			tv := NewTraversal(pool, m, "backend.bfs.level", nil)
			tv.serialEdges = 0
			tv.serialFrontier = 0
			dist := make([]int32, n)
			wantDist := refBFS(m, 0)

			for i := 0; i < iters; i++ {
				k.MapInto(y, x, nil)
				dense.Run()
				clear(lanes)
				sweep.Run()
				for j := range dist {
					dist[j] = -1
				}
				dist[0] = 0
				tv.Run(dist, 0)

				switch {
				case !slices.Equal(y, want):
					t.Errorf("client %d iter %d: SpMV drifted from the serial fold", c, i)
				case !slices.Equal(scaled, wantScaled):
					t.Errorf("client %d iter %d: Dense drifted from the serial pass", c, i)
				case !slices.Equal(folded, want):
					t.Errorf("client %d iter %d: Sweep row fold drifted from the serial fold", c, i)
				case sumInts(lanes) != n:
					t.Errorf("client %d iter %d: Sweep lanes tallied %d rows, want %d", c, i, sumInts(lanes), n)
				case !slices.Equal(dist, wantDist):
					t.Errorf("client %d iter %d: BFS levels drifted from the reference", c, i)
				default:
					continue
				}
				return
			}
		}(c)
	}
	wg.Wait()
	t.Logf("%d dispatches on the team, %d on their caller",
		reg.HistSnapshots()["backend.pool.dispatch_ns"].Count, reg.Counter("backend.pool.inline").Value())
}

func sumInts(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// chunkLog records the chunks a dispatch handed it, in the order they ran.
// It is only ever run on one goroutine (the caller's), so the appends are
// plain: if a dispatch it is given ever reached the team, -race reports it.
type chunkLog struct{ chunks [][3]int }

func (l *chunkLog) runChunk(worker, lo, hi int) { l.chunks = append(l.chunks, [3]int{worker, lo, hi}) }

// blockingRunner holds its dispatch's worker 0 until release is closed.
type blockingRunner struct {
	entered, release chan struct{}
	covered          [4]int
}

func (b *blockingRunner) runChunk(worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.covered[i]++
	}
	if worker == 0 {
		close(b.entered)
		<-b.release
	}
}

// TestBusyPoolRunsOnTheCaller pins the inline path: while one dispatch
// holds a 4-worker pool's team, a RunStatic and a RunDynamic from another
// goroutine still complete — on that goroutine, every index once, static
// ranges ascending under their own worker index, dynamic chunks ascending
// as worker 0 — and each is counted in backend.pool.inline. The held
// dispatch then finishes normally, and a dispatch on the free team is not
// counted.
func TestBusyPoolRunsOnTheCaller(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.SetRegistry(reg)
	inline := reg.Counter("backend.pool.inline")

	held := &blockingRunner{entered: make(chan struct{}), release: make(chan struct{})}
	heldDone := make(chan struct{})
	go func() {
		pool.RunStatic(held, evenSplits(4, 4))
		close(heldDone)
	}()
	<-held.entered

	static, dynamic := &chunkLog{}, &chunkLog{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.RunStatic(static, []int{0, 10, 10, 300, 1000})
		pool.RunDynamic(dynamic, 1000, 100) // grain rounds up to 128
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(held.release)
		<-done
		t.Fatal("dispatches on a busy pool waited for the team instead of running on their caller")
	}
	select {
	case <-heldDone:
		t.Fatal("the held dispatch finished before it was released")
	default:
	}

	wantStatic := [][3]int{{0, 0, 10}, {2, 10, 300}, {3, 300, 1000}}
	if !slices.Equal(static.chunks, wantStatic) {
		t.Errorf("inline static chunks = %v, want %v", static.chunks, wantStatic)
	}
	var wantDynamic [][3]int
	for lo := 0; lo < 1000; lo += 128 {
		wantDynamic = append(wantDynamic, [3]int{0, lo, min(lo+128, 1000)})
	}
	if !slices.Equal(dynamic.chunks, wantDynamic) {
		t.Errorf("inline dynamic chunks = %v, want %v", dynamic.chunks, wantDynamic)
	}
	if got := inline.Value(); got != 2 {
		t.Errorf("backend.pool.inline = %d after two dispatches on a busy pool, want 2", got)
	}

	close(held.release)
	<-heldDone
	if held.covered != [4]int{1, 1, 1, 1} {
		t.Errorf("the held dispatch covered %v, want every index once", held.covered)
	}
	free := &obsTestRunner{}
	pool.RunDynamic(free, 4096, 64)
	if free.n.Load() != 4096 || inline.Value() != 2 {
		t.Errorf("a dispatch on the free team covered %d of 4096 and left inline at %d, want 2", free.n.Load(), inline.Value())
	}
}
