package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sortedSet draws n distinct ids from [lo, lo+span), sorted.
func sortedSet(r *rand.Rand, n int, lo, span uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n && uint64(len(out)) < uint64(span) {
		v := lo + uint32(r.Int63n(int64(span)))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// mapIntersect is the oracle: |a ∩ b| by set membership.
func mapIntersect(a, b []uint32) int {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	c := 0
	for _, v := range b {
		if in[v] {
			c++
		}
	}
	return c
}

// binarySearchPos is the oracle for lowerBound.
func binarySearchPos(s []uint32, x uint32) int {
	i, _ := slices.BinarySearch(s, x)
	return i
}

// intersectCases are the shapes the branch-free merge and its prefix skip
// must get right: empty and single lists, identical, disjoint (apart and
// interleaved) and nested lists, a skew of 1 against 10 000, and ids at
// both ends of the uint32 range.
func intersectCases(r *rand.Rand) [][2][]uint32 {
	const top = math.MaxUint32 - 1
	big := sortedSet(r, 10000, 0, 40000)
	var evens, odds []uint32
	for v := uint32(0); v < 200; v += 2 {
		evens, odds = append(evens, v), append(odds, v+1)
	}
	high := sortedSet(r, 300, top-600, 601)
	cases := [][2][]uint32{
		{nil, nil},
		{nil, {0}},
		{{0}, {0}},
		{{0}, {1}},
		{{top}, {top}},
		{{top - 1}, {top}},
		{{0, top}, {0, top}},
		{big, big},
		{big[:5000], big[5000:]},
		{evens, odds},
		{big[2000:3000], big},
		{big, big[4000:4001]},
		{{big[0]}, big},
		{{big[len(big)-1]}, big},
		{{big[5000]}, big},
		{{big[5000] + 1}, big},
		{{40001}, big},
		{high, high[100:200]},
		{high, sortedSet(r, 300, top-600, 601)},
		{{0, 1, 2}, {0, top - 1, top}},
	}
	for i := 0; i < 200; i++ {
		span := uint32(1 + r.Intn(3000))
		lo := uint32(0)
		if i%2 == 1 {
			lo = top - span + 1
		}
		a := sortedSet(r, r.Intn(int(span)+1)%400, lo, span)
		b := sortedSet(r, r.Intn(int(span)+1)%400, lo, span)
		cases = append(cases, [2][]uint32{a, b})
	}
	return cases
}

// TestIntersectSortedCountMatchesMap checks the merge both ways round
// against a map-based count over every shape in intersectCases.
func TestIntersectSortedCountMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for i, c := range intersectCases(r) {
		a, b := c[0], c[1]
		want := mapIntersect(a, b)
		if got := IntersectSortedCount(a, b); got != want {
			t.Errorf("case %d (|a|=%d |b|=%d): count %d, want %d", i, len(a), len(b), got, want)
		}
		if got := IntersectSortedCount(b, a); got != want {
			t.Errorf("case %d swapped (|a|=%d |b|=%d): count %d, want %d", i, len(b), len(a), got, want)
		}
	}
}

// TestLowerBoundMatchesBinarySearch probes every list of intersectCases at
// each of its elements, one either side of each, and both ends of the
// uint32 range, against the standard library's binary search.
func TestLowerBoundMatchesBinarySearch(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for i, c := range intersectCases(r) {
		s := c[0]
		probes := []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}
		for _, v := range s {
			probes = append(probes, v-1, v, v+1)
		}
		for _, x := range probes {
			if got, want := lowerBound(s, x), binarySearchPos(s, x); got != want {
				t.Fatalf("case %d (len %d): lowerBound(%d) = %d, want %d", i, len(s), x, got, want)
			}
		}
	}
}

// TestHasEdgeMatchesMap builds one-row CSRs over the intersectCases lists,
// ids near MaxUint32 included, and checks HasEdge on sorted and unsorted
// adjacency against set membership.
func TestHasEdgeMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for i, c := range intersectCases(r) {
		row := c[0]
		in := make(map[uint32]bool, len(row))
		for _, v := range row {
			in[v] = true
		}
		sorted := &CSR{NumVertices: 1, Offsets: []int64{0, int64(len(row))}, Targets: row,
			targetSpace: math.MaxUint32, sortedAdj: true}
		shuffled := slices.Clone(row)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		unsorted := &CSR{NumVertices: 1, Offsets: []int64{0, int64(len(row))}, Targets: shuffled,
			targetSpace: math.MaxUint32}
		probes := append(slices.Clone(c[1]), 0, math.MaxUint32-1)
		for _, v := range row {
			probes = append(probes, v, v+1)
		}
		for _, v := range probes {
			if got := sorted.HasEdge(0, v); got != in[v] {
				t.Fatalf("case %d: sorted HasEdge(0,%d) = %v, want %v", i, v, got, in[v])
			}
			if len(row) > 1000 {
				continue // the unsorted scan is O(d) per probe
			}
			if got := unsorted.HasEdge(0, v); got != in[v] {
				t.Fatalf("case %d: unsorted HasEdge(0,%d) = %v, want %v", i, v, got, in[v])
			}
		}
	}
}

// TestIntersectSkipsTheDisjointPrefix: when one list lies wholly above the
// other, the prefix skip finds it by binary search, so the count costs
// O(log n) and not a walk over the long list. The check is a work ratio
// with a margin of a hundred: a one-element list against 2^18 ids
// below it must take under a hundredth of a full merge of the long list
// with itself.
func TestIntersectSkipsTheDisjointPrefix(t *testing.T) {
	long := make([]uint32, 1<<18)
	for i := range long {
		long[i] = uint32(i)
	}
	above := []uint32{1 << 21}
	sink := 0
	// fastest is the least time of reps runs of three calls: a run the
	// scheduler interrupts only reads slower, so the skewed calls, each
	// well under a microsecond, take many runs.
	fastest := func(reps int, f func() int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			for k := 0; k < 3; k++ {
				sink += f()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	full := fastest(3, func() int { return IntersectSortedCount(long, long) })
	for _, order := range [][2][]uint32{{above, long}, {long, above}} {
		skewed := fastest(50, func() int { return IntersectSortedCount(order[0], order[1]) })
		if skewed*100 > full {
			t.Errorf("|a|=%d |b|=%d took %v, a full merge of 2^18 ids %v: the prefix was walked, not skipped",
				len(order[0]), len(order[1]), skewed, full)
		}
	}
	if sink != 3*3*len(long) {
		t.Fatalf("counts sum to %d, want %d", sink, 3*3*len(long))
	}
}
