package galois

import (
	"slices"
	"sync/atomic"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// TestBulkRounds checks the bulk-synchronous executor on pools of 1 to 4
// workers and on a 1-worker pool whose team is held — the executor runs
// inside a dispatch on that same pool — so every round takes the pool's
// inline path. Each case's body pushes an item only after claiming it
// with a CAS, so every item must run exactly once: the initial items and
// each pushed one. An empty frontier runs no round, and a BFS runs one
// round per level plus the round that pushes nothing. The test exists to
// run under -race (workers append to their own push buffers while others
// run); testing.Short() scales the fan-out case down without skipping it.
func TestBulkRounds(t *testing.T) {
	n := uint32(1 << 14)
	if testing.Short() {
		n = 1 << 11
	}
	g := fixtureUndirected(t)
	const source = 13
	ref := core.RefBFS(g, source)
	reached, maxLevel := 0, int32(0)
	for _, d := range ref {
		if d >= 0 {
			reached++
			maxLevel = max(maxLevel, d)
		}
	}
	cases := []struct {
		name     string
		initial  []uint32
		span     uint32 // item ids are below span
		children func(v uint32) []uint32
		items    int
		rounds   int
	}{
		{name: "empty", span: 1, children: func(uint32) []uint32 { return nil }},
		{name: "chain", initial: []uint32{0}, span: 6, items: 6, rounds: 6,
			children: func(v uint32) []uint32 {
				if v < 5 {
					return []uint32{v + 1}
				}
				return nil
			}},
		{name: "fan-out", initial: iota32(n), span: 2 * n, items: int(2 * n), rounds: 2,
			children: func(v uint32) []uint32 {
				if v < n {
					return []uint32{v + n}
				}
				return nil
			}},
		{name: "bfs", initial: []uint32{source}, span: g.NumVertices, children: g.Neighbors,
			items: reached, rounds: int(maxLevel) + 1},
	}
	pools := []*par.Pool{par.NewPool(1), par.NewPool(2), par.NewPool(3), par.NewPool(4), par.NewPool(1)}
	for _, p := range pools {
		t.Cleanup(p.Close)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for pi, pool := range pools {
				held := pi == len(pools)-1
				tr := trace.New()
				pool.SetRegistry(tr.Registry())
				claimed := make([]atomic.Bool, tc.span)
				runs := make([]atomic.Int32, tc.span)
				for _, v := range tc.initial {
					claimed[v].Store(true)
				}
				initial := slices.Clone(tc.initial)
				rounds := 0
				run := func() {
					rounds = bulkRounds(pool, tr, initial, func(v uint32, push []uint32) []uint32 {
						runs[v].Add(1)
						for _, c := range tc.children(v) {
							if claimed[c].CompareAndSwap(false, true) {
								push = append(push, c)
							}
						}
						return push
					})
				}
				if held {
					backend.NewDense(pool, 1, func(int, int) { run() }).Run()
				} else {
					run()
				}
				pool.SetRegistry(nil)
				if rounds != tc.rounds {
					t.Errorf("pool %d: %d rounds, want %d", pi, rounds, tc.rounds)
				}
				items := 0
				for v := range runs {
					switch r := runs[v].Load(); {
					case r > 1 || (r == 1) != claimed[v].Load():
						t.Fatalf("pool %d: item %d ran %d times (claimed %v)", pi, v, r, claimed[v].Load())
					case r == 1:
						items++
					}
				}
				if items != tc.items {
					t.Errorf("pool %d: %d items ran, want %d", pi, items, tc.items)
				}
				if tc.name == "bfs" {
					for v, d := range ref {
						if claimed[v].Load() != (d >= 0) {
							t.Fatalf("pool %d: vertex %d claimed %v, reference distance %d", pi, v, claimed[v].Load(), d)
						}
					}
				}
				if !slices.Equal(initial, tc.initial) {
					t.Errorf("pool %d: the executor wrote to the caller's initial items", pi)
				}
				checkRoundSpans(t, tr, len(tc.initial), rounds)
				if inline := tr.Registry().Counter("backend.pool.inline").Value(); rounds > 0 && held != (inline > 0) {
					t.Errorf("pool %d (held %v): %d dispatches ran inline", pi, held, inline)
				}
			}
		})
	}
}

// checkRoundSpans requires one galois.round span per round, the first
// carrying the initial frontier's size and every one a non-empty frontier.
func checkRoundSpans(t *testing.T, tr *trace.Tracer, initial, rounds int) {
	t.Helper()
	var frontiers []float64
	for _, ev := range tr.Events() {
		if ev.Cat == "galois.round" {
			frontiers = append(frontiers, ev.Args["frontier"])
		}
	}
	if len(frontiers) != rounds {
		t.Fatalf("%d galois.round spans for %d rounds", len(frontiers), rounds)
	}
	for i, f := range frontiers {
		if f < 1 || (i == 0 && f != float64(initial)) {
			t.Errorf("round %d span carries frontier %v (initial %d)", i, f, initial)
		}
	}
}

func iota32(n uint32) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i)
	}
	return s
}
