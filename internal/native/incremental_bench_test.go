package native

// Incremental-kernel benchmarks (`go test -bench Stream`): each
// iteration ingests one delta batch and refreshes a kernel, the steady
// state of a system serving queries on a growing graph.

import (
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

type streamBench struct {
	base    *graph.CSR
	deltas  []graph.Edge
	batch   int
	batches int
	v       *graph.Versioned
}

func newStreamBench(b *testing.B, scale int) *streamBench {
	b.Helper()
	edges, err := gen.RMAT(gen.Graph500Config(scale, 16, 97))
	if err != nil {
		b.Fatal(err)
	}
	bld := graph.NewBuilder(uint32(1) << scale)
	bld.AddEdges(edges)
	base, err := bld.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true,
		DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		b.Fatal(err)
	}
	deltas, err := gen.RMAT(gen.Graph500Config(scale, 2, 98))
	if err != nil {
		b.Fatal(err)
	}
	s := &streamBench{base: base, deltas: deltas, batch: 2048}
	s.batches = len(deltas) / s.batch
	if s.batches == 0 {
		b.Fatal("delta stream too small")
	}
	return s
}

// next ingests batch i (cycling over the stream; a new pass restarts the
// versioned graph from the base epoch) and returns the new snapshot with
// the epoch's cleaned added edges.
func (s *streamBench) next(b *testing.B, i int, reset func()) (*graph.Snapshot, []graph.Edge) {
	b.Helper()
	k := i % s.batches
	if k == 0 {
		b.StopTimer()
		var err error
		if s.v, err = graph.NewVersioned(s.base, graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}); err != nil {
			b.Fatal(err)
		}
		reset()
		b.StartTimer()
	}
	snap, added, _, err := s.v.ApplyDelta(s.deltas[k*s.batch : (k+1)*s.batch])
	if err != nil {
		b.Fatal(err)
	}
	return snap, added
}

// BenchmarkStreamPageRankRefresh measures ingest + warm-started PageRank
// per delta batch (transpose rebuild + delta-localized sweeps).
func BenchmarkStreamPageRankRefresh(b *testing.B) {
	s := newStreamBench(b, 12)
	pool := backend.NewPool(0)
	defer pool.Close()
	var ranks []float64
	refresh := func(snap *graph.Snapshot) {
		g := snap.CSR()
		var err error
		if ranks, _, err = WarmPageRank(pool, backend.FromCSR(g.Transpose()), g.OutDegrees(), 0.3, 1e-9, 1000, ranks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _ := s.next(b, i, func() { ranks = nil; refresh(s.v.Current()) })
		refresh(snap)
	}
}

// BenchmarkStreamBFSRepair measures ingest + BFS distance repair per
// delta batch.
func BenchmarkStreamBFSRepair(b *testing.B) {
	s := newStreamBench(b, 12)
	pool := backend.NewPool(0)
	defer pool.Close()
	var dist []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, added := s.next(b, i, func() {
			dist = symmetricBFS(pool, s.v.Current(), 0)
		})
		dist = RepairBFS(backend.FromSnapshot(snap), dist, added)
	}
}

// BenchmarkStreamCCRepair measures ingest + component-label repair per
// delta batch (the stream is symmetrized, so each snapshot is its own
// in-edge matrix).
func BenchmarkStreamCCRepair(b *testing.B) {
	s := newStreamBench(b, 12)
	pool := backend.NewPool(0)
	defer pool.Close()
	var labels []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, added := s.next(b, i, func() {
			labels = ConnectedComponents(pool, backend.FromSnapshot(s.v.Current()))
		})
		labels = RepairCC(backend.FromSnapshot(snap), labels, added)
	}
}
