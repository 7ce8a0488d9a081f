package backend

import (
	"sync"
	"testing"
)

// TestPoolStressRace hammers one shared pool from several goroutines —
// the mutex-serialized dispatch must keep concurrent kernel users safe —
// while each kernel itself fans work out over all pool workers. Run under
// -race (CI does); -short keeps the iteration count small there.
func TestPoolStressRace(t *testing.T) {
	g := testGraph(t, 9, 55, true)
	m := FromCSR(g)
	pool := NewPool(4)
	defer pool.Close()

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
			y := make([]float64, g.NumVertices)
			k := NewSumVecMul(pool, m)
			tv := NewTraversal(pool, m, "backend.bfs.level", nil)
			tv.serialEdges = 0
			tv.serialFrontier = 0
			dist := make([]int32, g.NumVertices)
			want := refSpMVSum(m, x)
			for i := 0; i < iters; i++ {
				k.MapInto(y, x, nil)
				for j := range want {
					if y[j] != want[j] {
						t.Errorf("worker %d iter %d: SpMV drifted at %d", c, i, j)
						return
					}
				}
				for j := range dist {
					dist[j] = -1
				}
				dist[0] = 0
				tv.Run(dist, 0)
			}
		}(c)
	}
	wg.Wait()
}
