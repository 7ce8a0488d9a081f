package cuckoo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// forEach calls fn for every key the set holds, in unspecified order:
// the tests' view of its contents.
func (s *Set) forEach(fn func(uint32)) {
	if s.hasMax {
		fn(emptySlot)
	}
	for _, table := range s.buckets {
		for _, key := range table {
			if key != emptySlot {
				fn(key)
			}
		}
	}
}

// memoryBytes is the resident size of the set's tables.
func (s *Set) memoryBytes() int64 {
	return int64(len(s.buckets)) * int64(s.rows) * bucketSize * 4
}

func TestInsertContains(t *testing.T) {
	s := New(16)
	keys := []uint32{0, 1, 42, 1 << 20, 7, 9}
	for _, k := range keys {
		if !s.Insert(k) {
			t.Errorf("Insert(%d) reported duplicate on first insert", k)
		}
	}
	if s.size != len(keys) {
		t.Fatalf("Len = %d, want %d", s.size, len(keys))
	}
	for _, k := range keys {
		if !s.Contains(k) {
			t.Errorf("Contains(%d) = false after insert", k)
		}
	}
	for _, k := range []uint32{2, 3, 100, 1 << 21} {
		if s.Contains(k) {
			t.Errorf("Contains(%d) = true for absent key", k)
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	s := New(4)
	s.Insert(5)
	if s.Insert(5) {
		t.Error("duplicate insert reported as new")
	}
	if s.size != 1 {
		t.Errorf("Len = %d, want 1", s.size)
	}
}

func TestSentinelKey(t *testing.T) {
	s := New(4)
	max := ^uint32(0)
	if s.Contains(max) {
		t.Error("fresh set contains sentinel")
	}
	if !s.Insert(max) {
		t.Error("sentinel insert failed")
	}
	if !s.Contains(max) {
		t.Error("sentinel not found after insert")
	}
	if s.Insert(max) {
		t.Error("duplicate sentinel insert reported new")
	}
	if s.size != 1 {
		t.Errorf("Len = %d, want 1", s.size)
	}
}

func TestGrowth(t *testing.T) {
	s := New(2) // deliberately undersized
	const n = 10000
	for i := uint32(0); i < n; i++ {
		s.Insert(i * 2654435761) // well-spread keys
	}
	if s.size != n {
		t.Fatalf("Len = %d, want %d", s.size, n)
	}
	for i := uint32(0); i < n; i++ {
		if !s.Contains(i * 2654435761) {
			t.Fatalf("key %d lost during growth", i)
		}
	}
}

func TestForEach(t *testing.T) {
	s := New(8)
	want := map[uint32]bool{3: true, 17: true, 99: true}
	for k := range want {
		s.Insert(k)
	}
	got := map[uint32]bool{}
	s.forEach(func(k uint32) { got[k] = true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("ForEach missed %d", k)
		}
	}
}

func TestIntersectCount(t *testing.T) {
	s := New(8)
	for _, k := range []uint32{1, 2, 3, 4} {
		s.Insert(k)
	}
	if got := s.IntersectCount([]uint32{2, 4, 6, 8}); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if got := s.IntersectCount(nil); got != 0 {
		t.Errorf("IntersectCount(nil) = %d, want 0", got)
	}
}

func TestQuickAgainstMapSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(8)
		ref := map[uint32]bool{}
		for op := 0; op < 3000; op++ {
			k := uint32(r.Intn(5000))
			if r.Intn(2) == 0 {
				if s.Insert(k) == ref[k] {
					return false // Insert's newness must mirror the map
				}
				ref[k] = true
			} else if s.Contains(k) != ref[k] {
				return false
			}
		}
		return s.size == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAdversarialSameBucketKeys(t *testing.T) {
	// Insert far more keys than two 4-slot buckets can hold even if many
	// collide; growth must resolve it.
	s := New(2)
	for i := uint32(0); i < 64; i++ {
		s.Insert(i)
	}
	for i := uint32(0); i < 64; i++ {
		if !s.Contains(i) {
			t.Fatalf("key %d missing", i)
		}
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	small := New(4).memoryBytes()
	big := New(1 << 16).memoryBytes()
	if big <= small {
		t.Errorf("MemoryBytes: big %d <= small %d", big, small)
	}
}

// resetCases are key-set sizes and the capacity asked for, in the order one
// reused set sees them: a hub first, so every later Reset shrinks the
// tables it keeps; then loads that fill buckets and force kick chains
// (capacity == keys sits at the 80 % load New sizes for); then capacities
// far below the key count, which only growth can absorb.
var resetCases = []struct{ keys, capacity int }{
	{5000, 5000}, {3, 3}, {700, 700}, {0, 0}, {64, 64}, {900, 2}, {40, 1}, {5000, 5000}, {1, 1},
}

func randomKeys(r *rand.Rand, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(r.Intn(20000))
	}
	if n > 2 {
		keys[n/2] = emptySlot // the sentinel key lives outside the tables
	}
	return keys
}

// TestResetMatchesNew holds Reset to New's answers: after Reset(capacity)
// and the same inserts, a reused set has the same length, the same table
// size, the same keys in the same slots — so the same Contains and
// IntersectCount — as a set built fresh, whatever it held before.
func TestResetMatchesNew(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	reused := New(0)
	for i, c := range resetCases {
		keys := randomKeys(r, c.keys)
		probes := randomKeys(r, 2000)
		fresh := New(c.capacity)
		reused.Reset(c.capacity)
		if reused.size != 0 || reused.Contains(emptySlot) || reused.IntersectCount(probes) != 0 {
			t.Fatalf("case %d: set not empty after Reset", i)
		}
		for _, k := range keys {
			if fresh.Insert(k) != reused.Insert(k) {
				t.Fatalf("case %d: Insert(%d) newness differs", i, k)
			}
		}
		if fresh.size != reused.size || fresh.memoryBytes() != reused.memoryBytes() {
			t.Fatalf("case %d: len %d / %d bytes, fresh set has %d / %d", i, reused.size, reused.memoryBytes(), fresh.size, fresh.memoryBytes())
		}
		for tbl := range fresh.buckets {
			if !slices.Equal(fresh.buckets[tbl], reused.buckets[tbl]) {
				t.Fatalf("case %d: table %d differs from a fresh set's", i, tbl)
			}
		}
		for _, k := range append(probes, keys...) {
			if fresh.Contains(k) != reused.Contains(k) {
				t.Fatalf("case %d: Contains(%d) differs", i, k)
			}
		}
		if got, want := reused.IntersectCount(probes), fresh.IntersectCount(probes); got != want {
			t.Fatalf("case %d: IntersectCount = %d, fresh set says %d", i, got, want)
		}
	}
}

// TestResetSteadyStateAllocatesNothing pins the reuse: once a set has held
// its largest neighbourhood, loading any smaller one allocates nothing.
func TestResetSteadyStateAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sets [][]uint32
	for _, n := range []int{4000, 5, 300, 0, 1200, 60} {
		sets = append(sets, randomKeys(r, n))
	}
	s := New(0)
	load := func() {
		for _, keys := range sets {
			s.Reset(len(keys))
			for _, k := range keys {
				s.Insert(k)
			}
			if s.IntersectCount(keys) != len(keys) {
				t.Fatal("a loaded key is missing")
			}
		}
	}
	load() // the largest set sizes the tables
	if allocs := testing.AllocsPerRun(20, load); allocs != 0 {
		t.Errorf("%v allocations per pass over already-seen sizes, want 0", allocs)
	}
}

// TestIntersectCountMatchesContains: IntersectCount, which hoists the
// tables and runs the branch-free probe, equals a Contains loop and a map
// on sets that grew from a small capacity and were Reset to larger and
// smaller ones, with the sentinel key ^uint32(0) in the set and out of it,
// and in the probed list and out of it.
func TestIntersectCountMatchesContains(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	s := New(0)
	for round, size := range []int{40, 3000, 5, 700, 0, 10000, 64} {
		s.Reset(r.Intn(size + 1)) // under-sized: inserts below must grow it
		ref := map[uint32]bool{}
		withMax := round%2 == 1
		if withMax {
			s.Insert(^uint32(0))
			ref[^uint32(0)] = true
		}
		for len(ref) < size {
			k := uint32(r.Intn(4 * (size + 1)))
			if r.Intn(3) == 0 {
				k = ^uint32(0) - 1 - uint32(r.Intn(size+1))
			}
			s.Insert(k)
			ref[k] = true
		}
		for _, probeMax := range []bool{false, true} {
			keys := make([]uint32, 0, 2*size+1)
			for i := 0; i < 2*size; i++ {
				k := uint32(r.Intn(4 * (size + 1)))
				if i%4 == 0 {
					k = ^uint32(0) - 1 - uint32(r.Intn(size+1))
				}
				keys = append(keys, k)
			}
			if probeMax {
				keys = append(keys, ^uint32(0))
			}
			loop, want := 0, 0
			for _, k := range keys {
				if s.Contains(k) {
					loop++
				}
				if ref[k] {
					want++
				}
			}
			if got := s.IntersectCount(keys); got != loop || got != want {
				t.Errorf("round %d (size %d, max in set %v, max probed %v): IntersectCount %d, Contains loop %d, map %d",
					round, size, withMax, probeMax, got, loop, want)
			}
		}
	}
}
