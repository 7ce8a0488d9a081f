package giraph

import (
	"testing"
	"unsafe"

	"graphmaze/internal/graph"
)

// TestSuperstepMessageDeliveryStress exists to run under `go test -race`:
// every vertex messages all its out-edges every superstep with an elevated
// worker count, so eight workers write their own slots' sends, aggregator
// partials and buffered-bytes tallies side by side while the superstep
// loop folds them between phases. The counter then checks exact delivery:
// messages sent in superstep s arrive in superstep s+1, so S supersteps
// deliver (S-1)·E messages. The job has no phases, so one phase is the
// whole superstep and the folded buffer peaks at exactly E boxed
// messages. testing.Short() scales the graph down without skipping the
// scenario.
func TestSuperstepMessageDeliveryStress(t *testing.T) {
	n := uint32(20_000)
	if testing.Short() {
		n = 4_000
	}
	// Ring plus two chords: every vertex has out-degree 3.
	edges := make([]graph.Edge, 0, int(n)*3)
	for v := uint32(0); v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: v, Dst: (v + 1) % n},
			graph.Edge{Src: v, Dst: (v + 7) % n},
			graph.Edge{Src: v, Dst: (v + 131) % n},
		)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}

	const supersteps = 4
	res, err := Run(&Job{
		Graph:         g,
		Workers:       8,
		MaxSupersteps: supersteps,
		Init:          func(id uint32) any { return nil },
		MessageBytes:  func(msg any) int { return 8 },
		Compute: func(ctx *Context, messages []any) {
			ctx.AddToCounter(int64(len(messages)))
			ctx.SendMessageToAllEdges(ctx.ID())
			// Never vote to halt: MaxSupersteps bounds the run.
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDelivered := int64(supersteps-1) * g.NumEdges()
	if res.Counter != wantDelivered {
		t.Fatalf("delivered %d messages, want %d (lost or duplicated under contention)", res.Counter, wantDelivered)
	}
	if res.Supersteps != supersteps {
		t.Fatalf("ran %d supersteps, want %d", res.Supersteps, supersteps)
	}
	if want := g.NumEdges() * (javaObjectOverhead + 8); res.PeakBufferedBytes != want {
		t.Fatalf("PeakBufferedBytes = %d, want E × (%d + 8) = %d", res.PeakBufferedBytes, javaObjectOverhead, want)
	}
	if size := unsafe.Sizeof(slot{}); size != 64 {
		t.Fatalf("a worker slot is %d bytes, want one 64-byte cache line", size)
	}
}

// TestSuperstepSplitChunksStress repeats the delivery check with
// SplitSupersteps and a Combiner enabled, covering the phased superstep
// path where each phase's combined messages are staged at its end and the
// slots' buffered-bytes tallies are zeroed and re-accumulated.
func TestSuperstepSplitChunksStress(t *testing.T) {
	n := uint32(10_000)
	if testing.Short() {
		n = 2_000
	}
	edges := make([]graph.Edge, 0, int(n)*2)
	for v := uint32(0); v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: v, Dst: (v + 1) % n},
			graph.Edge{Src: v, Dst: (v + 17) % n},
		)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}

	const supersteps = 3
	res, err := Run(&Job{
		Graph:           g,
		Workers:         8,
		MaxSupersteps:   supersteps,
		SplitSupersteps: 4,
		Init:            func(id uint32) any { return nil },
		MessageBytes:    func(msg any) int { return 8 },
		Combiner:        func(a, b any) any { return a.(int64) + b.(int64) },
		Compute: func(ctx *Context, messages []any) {
			var sum int64
			for _, m := range messages {
				sum += m.(int64)
			}
			ctx.AddToCounter(sum)
			ctx.SendMessageToAllEdges(int64(1))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each vertex sends 1 along each of its 2 out-edges; the combiner sums
	// per destination, so each superstep after the first delivers a summed
	// total of E message units.
	wantUnits := int64(supersteps-1) * g.NumEdges()
	if res.Counter != wantUnits {
		t.Fatalf("delivered %d message units, want %d", res.Counter, wantUnits)
	}
}
