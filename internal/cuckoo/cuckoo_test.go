package cuckoo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInsertContains(t *testing.T) {
	s := New(16)
	keys := []uint32{0, 1, 42, 1 << 20, 7, 9}
	for _, k := range keys {
		if !s.Insert(k) {
			t.Errorf("Insert(%d) reported duplicate on first insert", k)
		}
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
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
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
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
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestGrowth(t *testing.T) {
	s := New(2) // deliberately undersized
	const n = 10000
	for i := uint32(0); i < n; i++ {
		s.Insert(i * 2654435761) // well-spread keys
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
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
	s.ForEach(func(k uint32) { got[k] = true })
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
		return s.Len() == len(ref)
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
	small := New(4).MemoryBytes()
	big := New(1 << 16).MemoryBytes()
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
		if reused.Len() != 0 || reused.Contains(emptySlot) || reused.IntersectCount(probes) != 0 {
			t.Fatalf("case %d: set not empty after Reset", i)
		}
		for _, k := range keys {
			if fresh.Insert(k) != reused.Insert(k) {
				t.Fatalf("case %d: Insert(%d) newness differs", i, k)
			}
		}
		if fresh.Len() != reused.Len() || fresh.MemoryBytes() != reused.MemoryBytes() {
			t.Fatalf("case %d: len %d / %d bytes, fresh set has %d / %d", i, reused.Len(), reused.MemoryBytes(), fresh.Len(), fresh.MemoryBytes())
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
