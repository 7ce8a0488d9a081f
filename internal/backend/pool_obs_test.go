package backend

import (
	"sync/atomic"
	"testing"

	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// obsTestRunner is a trivial kernel that counts the indices it was given.
type obsTestRunner struct{ n atomic.Int64 }

func (r *obsTestRunner) RunChunk(_, lo, hi int) { r.n.Add(int64(hi - lo)) }

// TestPoolObservability checks an attached registry sees dispatch latency,
// park latency, and the busy-fraction gauge — and that detaching stops
// the flow without disturbing the pool.
func TestPoolObservability(t *testing.T) {
	tr := trace.New()
	p := par.NewPool(4)
	defer p.Close()
	p.SetRegistry(tr.Registry())

	r := &obsTestRunner{}
	const dispatches = 8
	for i := 0; i < dispatches; i++ {
		p.RunDynamic(r, 4096, 64)
	}
	if r.n.Load() != dispatches*4096 {
		t.Fatalf("kernel saw %d items", r.n.Load())
	}
	hs := tr.Registry().HistSnapshots()
	if got := hs["backend.pool.dispatch_ns"]; got.Count != dispatches {
		t.Fatalf("dispatch hist count = %d, want %d", got.Count, dispatches)
	}
	// Workers park between dispatches; with 8 dispatches and 3 parked
	// workers there must be at least one park observation per worker slot
	// after the first wake.
	if got := hs["backend.pool.park_ns"]; got.Count == 0 {
		t.Fatalf("park hist empty: %+v", got)
	}
	var busy float64
	for _, g := range tr.Registry().Snapshot().Gauges {
		switch g.Name {
		case "backend.pool.busy_frac":
			busy = g.Value
			if g.Value < 0 || g.Value > 1 {
				t.Fatalf("busy_frac out of range: %v", g.Value)
			}
		case "backend.pool.workers":
			if g.Value != 4 {
				t.Fatalf("workers gauge = %v", g.Value)
			}
		}
	}
	if busy <= 0 {
		t.Fatal("busy_frac never set")
	}

	p.SetRegistry(nil)
	before := tr.Registry().HistSnapshots()["backend.pool.dispatch_ns"].Count
	p.RunDynamic(r, 4096, 64)
	after := tr.Registry().HistSnapshots()["backend.pool.dispatch_ns"].Count
	if before != after {
		t.Fatalf("detached pool still recorded: %d -> %d", before, after)
	}
}
