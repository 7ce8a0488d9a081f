package par

import (
	"sync/atomic"
	"testing"
)

// These tests exist to run under `go test -race`: they exercise nested and
// repeated use of the loop primitives and then verify exact results, so the
// race detector can observe the goroutine structure under real contention.
// testing.Short() scales sizes down so the -short race pass stays fast
// without skipping the scenario.

// TestNestedForStress nests For inside For — the shape engines produce when
// a parallel kernel calls a parallel helper — and checks the exact total,
// which would be wrong if chunks overlapped or a join were missing.
func TestNestedForStress(t *testing.T) {
	rows, cols := 64, 1<<13
	if testing.Short() {
		rows, cols = 32, 1<<10
	}
	data := make([][]int64, rows)
	for r := range data {
		row := make([]int64, cols)
		for c := range row {
			row[c] = int64(r + c)
		}
		data[r] = row
	}
	var total int64
	For(rows, func(rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			row := data[r]
			For(cols, func(clo, chi int) {
				var local int64
				for c := clo; c < chi; c++ {
					local += row[c]
				}
				atomic.AddInt64(&total, local)
			})
		}
	})
	var want int64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want += int64(r + c)
		}
	}
	if total != want {
		t.Fatalf("nested For total = %d, want %d", total, want)
	}
}

// TestForWorkersIndexedSlotDisjoint verifies the per-worker staging
// contract engines rely on: each worker index is handed out to exactly one
// goroutine per call, and the index ranges tile [0,n) without overlap. The
// per-slot writes are plain on purpose — if two goroutines ever shared a
// worker index, the race detector would fire.
func TestForWorkersIndexedSlotDisjoint(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	workers, n := 8, 10_000
	for it := 0; it < iters; it++ {
		type span struct{ lo, hi int }
		slots := make([]span, workers)
		covered := make([]int64, n)
		ForWorkersIndexed(workers, n, func(w, lo, hi int) {
			slots[w] = span{lo, hi} // plain write: slot w must be exclusive
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("iter %d: index %d covered %d times, want exactly once", it, i, c)
			}
		}
		for w, s := range slots {
			if s.hi < s.lo {
				t.Fatalf("iter %d: worker %d got inverted range [%d,%d)", it, w, s.lo, s.hi)
			}
		}
	}
}

// TestForOffsetsStress runs the edge-balanced splitter over a skewed
// degree sequence with plain per-vertex writes, mirroring the PageRank
// gather's write pattern (each vertex written by exactly one worker).
func TestForOffsetsStress(t *testing.T) {
	n, iters := 1<<15, 40
	if testing.Short() {
		n, iters = 1<<12, 10
	}
	degs := make([]int64, n)
	for i := range degs {
		degs[i] = int64(i % 7)
		if i%1000 == 0 {
			degs[i] = 50_000 // hubs: force lopsided vertex ranges
		}
	}
	offsets := make([]int64, n+1)
	for i, d := range degs {
		offsets[i+1] = offsets[i] + d
	}
	acc := make([]int64, n)
	for it := 0; it < iters; it++ {
		ForOffsets(offsets, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i]++ // plain write: ranges tile [0,n) and the loop joins
			}
		})
	}
	for i, v := range acc {
		if v != int64(iters) {
			t.Fatalf("acc[%d] = %d, want %d", i, v, iters)
		}
	}
}

// TestForReuseStress reruns For back-to-back with an accumulator carried
// across calls, the shape of an iterative kernel (PageRank's per-iteration
// parallel sweep), verifying no writes leak across the implicit barrier.
func TestForReuseStress(t *testing.T) {
	n := 1 << 15
	rounds := 50
	if testing.Short() {
		n, rounds = 1<<12, 10
	}
	acc := make([]int64, n)
	for round := 0; round < rounds; round++ {
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[i]++ // plain write: For guarantees disjoint chunks and a full join
			}
		})
	}
	for i, v := range acc {
		if v != int64(rounds) {
			t.Fatalf("acc[%d] = %d, want %d", i, v, rounds)
		}
	}
}
