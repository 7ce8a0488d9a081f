// Package cuckoo implements a two-choice cuckoo hash set of uint32 keys.
//
// The paper attributes GraphLab's competitive triangle-counting numbers to
// exactly this structure (§5.3: "the cuckoo hash data structure that allows
// for a fast union of neighbor lists"). Lookups probe at most two buckets —
// two cache lines — which is what makes the neighbourhood-intersection
// inner loop fast.
package cuckoo

const (
	bucketSize    = 4 // 4-slot buckets keep load factors practical
	maxKicks      = 500
	emptySlot     = ^uint32(0) // sentinel; the set stores ids < 2^32-1
	minBucketRows = 2
)

// Set is an insert-and-lookup cuckoo hash set. The zero value is not
// usable; call New.
type Set struct {
	buckets [2][]uint32 // two tables, flattened as rows of bucketSize
	rows    uint32
	size    int
	hasMax  bool // whether the sentinel key itself was inserted
}

// New returns a set pre-sized for the given number of keys.
func New(capacity int) *Set {
	s := &Set{}
	s.Reset(capacity)
	return s
}

// Reset empties the set and sizes its tables for capacity keys, exactly as
// New would, so a reset set places and finds keys where a new one does. It
// allocates only when a table is smaller than capacity needs; a caller that
// builds one neighbourhood after another reuses one set and stops
// allocating once it has seen its largest. The tables shrink as well as
// grow: emptying costs the capacity asked for, not the largest ever held.
func (s *Set) Reset(capacity int) {
	rows := uint32(minBucketRows)
	for int(rows)*bucketSize*2 < capacity*5/4 {
		rows *= 2
	}
	s.resize(rows)
	s.size, s.hasMax = 0, false
}

// resize leaves both tables empty with the given number of rows.
func (s *Set) resize(rows uint32) {
	slots := int(rows) * bucketSize
	for t := range s.buckets {
		if cap(s.buckets[t]) < slots {
			s.buckets[t] = make([]uint32, slots)
		}
		b := s.buckets[t][:slots]
		for i := range b {
			b[i] = emptySlot
		}
		s.buckets[t] = b
	}
	s.rows = rows
}

// Len reports the number of keys stored.
func (s *Set) Len() int { return s.size }

func (s *Set) hash(table int, key uint32) uint32 {
	x := uint64(key)
	if table == 0 {
		x = (x ^ (x >> 16)) * 0x45d9f3b
		x = (x ^ (x >> 16)) * 0x45d9f3b
	} else {
		x = (x ^ (x >> 15)) * 0xd168aabb
		x = (x ^ (x >> 13)) * 0xaf723597
	}
	x ^= x >> 16
	return uint32(x) & (s.rows - 1)
}

// Contains reports whether key is in the set — at most two bucket probes.
func (s *Set) Contains(key uint32) bool {
	if key == emptySlot {
		return s.hasMax
	}
	for t := 0; t < 2; t++ {
		row := s.hash(t, key) * bucketSize
		b := s.buckets[t]
		for i := uint32(0); i < bucketSize; i++ {
			if b[row+i] == key {
				return true
			}
		}
	}
	return false
}

// Insert adds key to the set; duplicates are ignored. Insert reports
// whether the key was newly added.
func (s *Set) Insert(key uint32) bool {
	if key == emptySlot {
		if s.hasMax {
			return false
		}
		s.hasMax = true
		s.size++
		return true
	}
	if s.Contains(key) {
		return false
	}
	s.mustInsert(key)
	s.size++
	return true
}

// mustInsert places key, growing the tables until the kick chain succeeds.
// A failed chain leaves an orphaned victim in hand, which must be placed
// after the growth — dropping it would silently lose a key.
func (s *Set) mustInsert(key uint32) {
	for {
		orphan, ok := s.insertKicking(key)
		if ok {
			return
		}
		s.grow()
		key = orphan
	}
}

// insertKicking places key, displacing residents cuckoo-style. On failure
// it returns the key left without a home (which is generally NOT the key
// passed in — the chain evicted it from its slot along the way).
func (s *Set) insertKicking(key uint32) (orphan uint32, ok bool) {
	cur := key
	table := 0
	for kick := 0; kick < maxKicks; kick++ {
		row := s.hash(table, cur) * bucketSize
		b := s.buckets[table]
		for i := uint32(0); i < bucketSize; i++ {
			if b[row+i] == emptySlot {
				b[row+i] = cur
				return 0, true
			}
		}
		// Evict a pseudo-random resident (rotate by kick for determinism).
		victim := row + uint32(kick)%bucketSize
		cur, b[victim] = b[victim], cur
		table = 1 - table
	}
	return cur, false
}

// grow doubles the table and rehashes every resident key.
func (s *Set) grow() {
	old := s.buckets
	bigger := &Set{}
	bigger.resize(s.rows * 2)
	for _, table := range old {
		for _, key := range table {
			if key != emptySlot {
				bigger.mustInsert(key)
			}
		}
	}
	s.buckets = bigger.buckets
	s.rows = bigger.rows
}

// ForEach calls fn for every key in unspecified order.
func (s *Set) ForEach(fn func(uint32)) {
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

// IntersectCount returns |s ∩ keys| — the triangle-counting primitive: the
// received neighbour list is streamed against the local cuckoo set.
func (s *Set) IntersectCount(keys []uint32) int {
	c := 0
	for _, k := range keys {
		if s.Contains(k) {
			c++
		}
	}
	return c
}

// MemoryBytes reports the resident size of the tables.
func (s *Set) MemoryBytes() int64 {
	return int64(len(s.buckets)) * int64(s.rows) * bucketSize * 4
}
