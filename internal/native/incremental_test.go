package native

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// conformanceProcs are the worker counts every incremental kernel is
// pinned at: the refresh on epoch N+1 must match a full recompute on the
// same epoch regardless of parallelism.
var conformanceProcs = []int{1, 4}

// symmetricBFS runs BFS from source on a symmetric snapshot, which is
// its own in-edge matrix.
func symmetricBFS(pool *par.Pool, s *graph.Snapshot, source uint32) []int32 {
	m := backend.FromSnapshot(s)
	dist, _ := BFS(pool, m, m, source, "native.bfs.level", nil)
	return dist
}

// buildStream builds a versioned graph plus a fixed schedule of deltas
// from a seeded generator. Deltas mix edges inside the current vertex
// space with edges that grow it, so every epoch exercises both repair
// and vertex-space growth.
func buildStream(t *testing.T, n uint32, baseEdges, epochs, deltaEdges int, opts graph.DeltaOptions, seed int64) (*graph.Versioned, [][]graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, baseEdges)
	for i := 0; i < baseEdges; i++ {
		edges = append(edges, graph.Edge{Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))})
	}
	b := graph.NewBuilder(n)
	b.AddEdges(edges)
	bopt := graph.BuildOptions{Dedup: true, DropSelfLoops: true}
	if opts.Symmetrize {
		bopt.Orientation = graph.Symmetrize
	}
	base, err := b.Build(bopt)
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([][]graph.Edge, epochs)
	top := n
	for e := range deltas {
		d := make([]graph.Edge, 0, deltaEdges)
		for i := 0; i < deltaEdges; i++ {
			if i%8 == 7 {
				// Grow: attach a brand-new vertex to a random old one.
				d = append(d, graph.Edge{Src: uint32(rng.Intn(int(top))), Dst: top})
				top++
				continue
			}
			d = append(d, graph.Edge{Src: uint32(rng.Intn(int(top))), Dst: uint32(rng.Intn(int(top)))})
		}
		deltas[e] = d
	}
	return v, deltas
}

// warmPR is WarmPageRank on snapshot s at the tolerance the conformance
// tests pin: the transpose and out-degrees are built per epoch, as every
// caller does.
func warmPR(t *testing.T, pool *par.Pool, s *graph.Snapshot, tol float64, ranks []float64) ([]float64, int) {
	t.Helper()
	g := s.CSR()
	ranks, sweeps, err := WarmPageRank(pool, backend.FromCSR(g.Transpose()), g.OutDegrees(), 0.3, tol, 1000, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return ranks, sweeps
}

func TestIncrementalPageRankConformance(t *testing.T) {
	for _, procs := range conformanceProcs {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			v, deltas := buildStream(t, 150, 900, 3, 64, graph.DeltaOptions{DropSelfLoops: true}, 7)
			const tol = 1e-10
			pool := par.NewPool(0)
			defer pool.Close()

			check := func(s *graph.Snapshot, warmSweeps int, ranks []float64) {
				ref, coldSweeps := warmPR(t, pool, s, tol, nil)
				// Both runs converge to the same unique fixpoint; the bound
				// is a small multiple of the tolerance (contraction margin).
				if d := maxAbsDiff(pool, ranks, ref); d > 1e-7 {
					t.Fatalf("procs=%d epoch=%d warm/cold ranks diverge: %g", procs, s.Epoch(), d)
				}
				// The warm start should never be meaningfully worse than a
				// cold one; one sweep of wiggle covers a fixpoint the delta
				// moved roughly as far as the all-ones start sits from it.
				if warmSweeps > coldSweeps+1 {
					t.Fatalf("procs=%d epoch=%d warm start took more sweeps than cold (%d > %d)",
						procs, s.Epoch(), warmSweeps, coldSweeps)
				}
			}

			// A cold start is PageRankInto from all-ones, bit for bit: on
			// all-ones ranks the mass deficit is exactly 0.
			g := v.Current().CSR()
			n := int(g.NumVertices)
			ranks, sweeps := warmPR(t, pool, v.Current(), tol, nil)
			cold, coldSweeps := PageRankInto(pool, backend.FromCSR(g.Transpose()), g.OutDegrees(), 0.3, tol, 1000, 0, nil,
				make([]float64, n), make([]float64, n), make([]float64, n))
			if !slices.Equal(ranks, cold) || sweeps != coldSweeps {
				t.Fatalf("procs=%d: WarmPageRank(nil) differs from a cold PageRank", procs)
			}
			for _, d := range deltas {
				snap, _, _, err := v.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				ranks, sweeps = warmPR(t, pool, snap, tol, ranks)
				check(snap, sweeps, ranks)
			}
		}()
	}
}

func TestIncrementalBFSConformance(t *testing.T) {
	for _, procs := range conformanceProcs {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			v, deltas := buildStream(t, 200, 1200, 4, 72,
				graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}, 11)
			const source = 0
			pool := par.NewPool(0)
			defer pool.Close()
			dist := symmetricBFS(pool, v.Current(), source)
			for _, d := range deltas {
				snap, added, _, err := v.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				dist = RepairBFS(backend.FromSnapshot(snap), dist, added)
				ref := symmetricBFS(pool, snap, source)
				if len(dist) != len(ref) {
					t.Fatalf("procs=%d epoch=%d length %d vs %d", procs, snap.Epoch(), len(dist), len(ref))
				}
				for i := range dist {
					if dist[i] != ref[i] {
						t.Fatalf("procs=%d epoch=%d dist[%d]=%d, full recompute %d",
							procs, snap.Epoch(), i, dist[i], ref[i])
					}
				}
			}
		}()
	}
}

func TestIncrementalCCConformance(t *testing.T) {
	for _, procs := range conformanceProcs {
		prev := runtime.GOMAXPROCS(procs)
		func() {
			defer runtime.GOMAXPROCS(prev)
			// Sparse base: many components, so deltas actually merge some.
			v, deltas := buildStream(t, 300, 180, 4, 48,
				graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}, 13)
			pool := par.NewPool(0)
			defer pool.Close()
			labels := ConnectedComponents(pool, backend.FromSnapshot(v.Current()))
			for _, d := range deltas {
				snap, added, _, err := v.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				// Symmetrized: the snapshot's own matrix is its in-edge matrix.
				labels = RepairCC(backend.FromSnapshot(snap), labels, added)
				ref := ConnectedComponents(pool, backend.FromSnapshot(snap))
				if len(labels) != len(ref) {
					t.Fatalf("procs=%d epoch=%d length %d vs %d", procs, snap.Epoch(), len(labels), len(ref))
				}
				for i := range labels {
					if labels[i] != ref[i] {
						t.Fatalf("procs=%d epoch=%d labels[%d]=%d, full recompute %d",
							procs, snap.Epoch(), i, labels[i], ref[i])
					}
				}
			}
		}()
	}
}

// TestIncrementalBFSDisconnectedThenBridged pins the repair on the case
// a random stream rarely hits squarely: a region unreachable for several
// epochs that one delta edge suddenly bridges.
func TestIncrementalBFSDisconnectedThenBridged(t *testing.T) {
	b := graph.NewBuilder(6)
	// Two components: {0,1,2} reachable from 0, {3,4,5} an island.
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}})
	g, err := b.Build(graph.BuildOptions{Dedup: true, Orientation: graph.Symmetrize})
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(g, graph.DeltaOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(0)
	defer pool.Close()
	dist := symmetricBFS(pool, v.Current(), 0)
	if dist[3] != -1 || dist[5] != -1 {
		t.Fatalf("island must start unreachable: %v", dist)
	}
	// A delta entirely inside the unreached island seeds no repair at all.
	snap, added, _, err := v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	dist = RepairBFS(backend.FromSnapshot(snap), dist, added)
	if dist[3] != -1 || dist[5] != -1 {
		t.Fatalf("island must stay unreachable before the bridge: %v", dist)
	}
	snap, added, _, err = v.ApplyDelta([]graph.Edge{{Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	dist = RepairBFS(backend.FromSnapshot(snap), dist, added)
	// 5 is reached through the island edge 3–5 added above, not the chain.
	want := []int32{0, 1, 2, 3, 4, 4}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("after bridge, dist=%v want %v", dist, want)
		}
	}
}

// TestIncrementalKernelsRaceStress runs readers over Current() while a
// writer applies deltas and refreshes all three carried vectors — the
// epoch contract under -race: snapshots are immutable, the kernels hold no
// snapshot, readers never block.
func TestIncrementalKernelsRaceStress(t *testing.T) {
	v, deltas := buildStream(t, 128, 512, 12, 32,
		graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}, 17)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := v.Current()
				g := s.CSR()
				var sum int64
				for u := uint32(0); u < g.NumVertices; u++ {
					sum += int64(len(g.Neighbors(u)))
				}
				if sum != g.NumEdges() {
					t.Errorf("reader saw torn snapshot: %d edges counted, %d recorded", sum, g.NumEdges())
					return
				}
			}
		}()
	}

	pool := par.NewPool(0)
	defer pool.Close()
	ranks, _ := warmPR(t, pool, v.Current(), 1e-8, nil)
	dist := symmetricBFS(pool, v.Current(), 0)
	labels := ConnectedComponents(pool, backend.FromSnapshot(v.Current()))
	for _, d := range deltas {
		snap, added, _, err := v.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		ranks, _ = warmPR(t, pool, snap, 1e-8, ranks)
		dist = RepairBFS(backend.FromSnapshot(snap), dist, added)
		labels = RepairCC(backend.FromSnapshot(snap), labels, added)
	}
	close(stop)
	wg.Wait()
}
