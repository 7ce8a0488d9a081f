// Package bitvec implements the bit-vector data structure the paper's
// native BFS and triangle-counting kernels rely on for constant-time
// membership tests with minimal cache footprint (§6.1.1: "algorithms like
// BFS and Triangle Counting can take advantage of bit-vectors ... for
// constant time lookups while minimizing cache misses").
package bitvec

import (
	"math/bits"
	"sync/atomic"
)

// Vector is a fixed-capacity bitset over [0, Len()).
type Vector struct {
	words []uint64
	n     uint32
}

// New returns a zeroed bit vector holding n bits.
func New(n uint32) *Vector {
	return &Vector{words: make([]uint64, (uint64(n)+63)/64), n: n}
}

// Len reports the capacity in bits.
func (v *Vector) Len() uint32 { return v.n }

// Set sets bit i.
func (v *Vector) Set(i uint32) {
	v.words[i>>6] |= 1 << (i & 63)
}

// Clear clears bit i.
func (v *Vector) Clear(i uint32) {
	v.words[i>>6] &^= 1 << (i & 63)
}

// Get reports bit i.
func (v *Vector) Get(i uint32) bool {
	return v.words[i>>6]&(1<<(i&63)) != 0
}

// SetAtomic sets bit i with a CAS loop, safe for concurrent setters. It
// reports whether this call changed the bit (false if it was already set),
// which lets parallel BFS claim vertices exactly once. The plain accessors
// share its word array: callers use them only in serial phases, separated
// from parallel SetAtomic calls by a barrier.
func (v *Vector) SetAtomic(i uint32) bool {
	addr := &v.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// ForEach calls fn for every set bit in ascending order.
func (v *Vector) ForEach(fn func(uint32)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(uint32(wi*64 + b))
			w &= w - 1
		}
	}
}

// Words exposes the raw word array for codecs. The slice aliases the
// vector's storage.
func (v *Vector) Words() []uint64 { return v.words }

// MemoryBytes reports the resident size of the vector.
func (v *Vector) MemoryBytes() int64 { return int64(len(v.words)) * 8 }
