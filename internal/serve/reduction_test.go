package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reductions serve.execute ran before they became single passes, kept
// as the oracles the new ones are property-tested against.
// checksumFloat64s and checksumInt32s are also what differential_test.go
// hashes the direct kernels' arrays with, so the served checksums are
// compared against hash/fnv, not against themselves.

// refTopRanks is the full-sort top-k: index every vertex, sort by
// (rank desc, id asc), take k.
func refTopRanks(ranks []float64, k int) []vertexValue {
	if k <= 0 {
		return nil
	}
	idx := make([]uint32, len(ranks))
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		return a < b
	})
	if k > len(idx) {
		k = len(idx)
	}
	top := make([]vertexValue, k)
	for i := 0; i < k; i++ {
		top[i] = vertexValue{Vertex: idx[i], Value: ranks[idx[i]]}
	}
	return top
}

// refComponentStats counts distinct labels and the largest component
// through a map.
func refComponentStats(labels []uint32) (components, largest int64) {
	sizes := make(map[uint32]int64)
	for _, l := range labels {
		sizes[l]++
	}
	for _, sz := range sizes {
		if sz > largest {
			largest = sz
		}
	}
	return int64(len(sizes)), largest
}

func checksumFloat64s(xs []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func checksumInt32s(xs []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func checksumUint32s(xs []uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], x)
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rankShapes are the tie structures the top-k pass must order exactly as
// the full sort does.
var rankShapes = map[string]func(rng *rand.Rand, i, n int) float64{
	"random":     func(rng *rand.Rand, _, _ int) float64 { return rng.Float64() },
	"all-equal":  func(*rand.Rand, int, int) float64 { return 0.3 },
	"two-valued": func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(2)) },
	"few-valued": func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(7)) / 4 },
	"descending": func(_ *rand.Rand, i, n int) float64 { return float64(n - i) },
	"ascending":  func(_ *rand.Rand, i, _ int) float64 { return float64(i) },
	"signed-zero": func(rng *rand.Rand, _, _ int) float64 {
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	},
}

func TestTopRanksMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for name, shape := range rankShapes {
		for _, n := range []int{0, 1, 2, 65, 1500} {
			ranks := make([]float64, n)
			for i := range ranks {
				ranks[i] = shape(rng, i, n)
			}
			for _, k := range []int{-1, 0, 1, 5, n - 1, n, n + 1, 1000} {
				got, want := topRanks(ranks, k), refTopRanks(ranks, k)
				if len(got) != len(want) || (got == nil) != (want == nil) {
					t.Fatalf("%s n=%d k=%d: %d entries (nil %v), want %d (nil %v)",
						name, n, k, len(got), got == nil, len(want), want == nil)
				}
				for i := range want {
					// Bit comparison: -0 and +0 tie in the order but must be
					// reported as stored.
					if got[i].Vertex != want[i].Vertex ||
						math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
						t.Fatalf("%s n=%d k=%d: entry %d = %+v, want %+v", name, n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestComponentStatsMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := map[string][]uint32{
		"empty":       {},
		"one-vertex":  {0},
		"one-giant":   make([]uint32, 65),
		"singletons":  nil, // filled below
		"label-n-1":   {0, 0, 2, 3, 2, 5},
		"random-mins": nil,
	}
	single := make([]uint32, 65)
	for i := range single {
		single[i] = uint32(i)
	}
	cases["singletons"] = single
	// Random canonical labelling: each vertex joins an earlier root or
	// roots itself, so every label is the minimum id of its component.
	random := make([]uint32, 300)
	for v := range random {
		if v == 0 || rng.Intn(4) == 0 {
			random[v] = uint32(v)
		} else {
			random[v] = random[rng.Intn(v)]
		}
	}
	cases["random-mins"] = random
	for name, labels := range cases {
		counts := make([]int32, len(labels))
		for i := range counts {
			counts[i] = 99 // stale scratch from an earlier borrower
		}
		comps, largest, sum := componentStats(labels, counts)
		wantComps, wantLargest := refComponentStats(labels)
		if comps != wantComps || largest != wantLargest {
			t.Errorf("%s: components/largest %d/%d, want %d/%d", name, comps, largest, wantComps, wantLargest)
		}
		if got, want := checksumHex(sum), checksumUint32s(labels); got != want {
			t.Errorf("%s: checksum %s, want %s", name, got, want)
		}
	}
}

func TestChecksumsMatchHashFNV(t *testing.T) {
	floats := [][]float64{
		{},
		{0},
		{math.Copysign(0, -1), 0, 1},
		{0.3, 1e-300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
	for _, xs := range floats {
		if got, want := checksumHex(hashFloat64s(xs)), checksumFloat64s(xs); got != want {
			t.Errorf("float64 %v: %s, want %s", xs, got, want)
		}
	}
	ints := [][]int32{
		{},
		{-1},
		{0, -1, 7},
		{-1, -1, 0, 3, math.MaxInt32, 2, -1},
	}
	for _, xs := range ints {
		reached, maxDepth, sum := bfsStats(xs)
		if got, want := checksumHex(sum), checksumInt32s(xs); got != want {
			t.Errorf("int32 %v: %s, want %s", xs, got, want)
		}
		var wantReached int64
		var wantDepth int32
		for _, d := range xs {
			if d >= 0 {
				wantReached++
				wantDepth = max(wantDepth, d)
			}
		}
		if reached != wantReached || maxDepth != wantDepth {
			t.Errorf("int32 %v: reached/depth %d/%d, want %d/%d", xs, reached, maxDepth, wantReached, wantDepth)
		}
	}
	// The Datalog fold: a 4-byte key then an 8-byte value per fact is the
	// 12-byte record hash/fnv was fed.
	h := fnv.New64a()
	sum := uint64(fnvOffset64)
	var buf [12]byte
	for k, v := range []float64{0, 3, math.Copysign(0, -1), 65535} {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(k)*40503)
		binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(v))
		_, _ = h.Write(buf[:])
		sum = fnv1a(fnv1a(sum, uint64(uint32(k)*40503), 4), math.Float64bits(v), 8)
	}
	if sum != h.Sum64() {
		t.Errorf("datalog fold %016x, want %016x", sum, h.Sum64())
	}
	if checksumHex(fnvOffset64) != fmt.Sprintf("%016x", fnv.New64a().Sum64()) {
		t.Error("empty checksum differs from hash/fnv's offset basis")
	}
}
