package graph_test

// Streaming-layer benchmarks (`go test -bench Stream`): delta batch
// ingestion into a new epoch and snapshot persistence. External test
// package so the RMAT generator is usable without an import cycle.

import (
	"testing"

	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
)

func benchBase(b testing.TB, scale int) (*graph.CSR, []graph.Edge) {
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
	return base, deltas
}

// BenchmarkStreamApplyDelta measures batched delta ingestion: dedup-sort
// of the batch, duplicate rejection against the base adjacency, and the
// parallel merge-build of the next epoch's CSR.
func BenchmarkStreamApplyDelta(b *testing.B) {
	base, deltas := benchBase(b, 13)
	const batch = 2048
	batches := len(deltas) / batch
	if batches == 0 {
		b.Fatal("delta stream too small")
	}
	var v *graph.Versioned
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % batches
		if k == 0 {
			// New pass over the stream: restart from the base epoch so
			// every iteration ingests a batch with fresh edges.
			b.StopTimer()
			var err error
			if v, err = graph.NewVersioned(base, graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, _, err := v.ApplyDelta(deltas[k*batch : (k+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSnapshotEncode measures epoch persistence framing.
func BenchmarkStreamSnapshotEncode(b *testing.B) {
	base, _ := benchBase(b, 13)
	v, err := graph.NewVersioned(base, graph.DeltaOptions{})
	if err != nil {
		b.Fatal(err)
	}
	snap := v.Current()
	buf, err := graph.EncodeSnapshot(nil, snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.EncodeSnapshot(buf[:0], snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSnapshotDecode measures epoch restore (decode + full
// CSR validation).
func BenchmarkStreamSnapshotDecode(b *testing.B) {
	base, _ := benchBase(b, 13)
	v, err := graph.NewVersioned(base, graph.DeltaOptions{})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := graph.EncodeSnapshot(nil, v.Current())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.DecodeSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamDeltaRecord measures what persisting one epoch advance
// costs now that it is the delta's record and not the snapshot: encode,
// and the decode + checked replay a restore pays per record.
func BenchmarkStreamDeltaRecord(b *testing.B) {
	base, delta := benchBase(b, 13)
	v, err := graph.NewVersioned(base, graph.DeltaOptions{})
	if err != nil {
		b.Fatal(err)
	}
	prev := v.Current()
	snap, added, _, err := v.ApplyDelta(delta[:64])
	if err != nil {
		b.Fatal(err)
	}
	buf := graph.EncodeDelta(nil, snap, added)
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = graph.EncodeDelta(buf[:0], snap, added)
		}
	})
	b.Run("Replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, _, err := graph.DecodeDelta(buf)
			if err == nil {
				_, err = rec.Apply(prev)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
