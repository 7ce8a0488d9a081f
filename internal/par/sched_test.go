package par

import "testing"

// TestEvenSplitsBalance asserts the static splitter's ranges tile [0,n)
// in k ascending pieces whose sizes never differ by more than one: a
// lumpy split systematically skews one worker's share.
func TestEvenSplitsBalance(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 100, 101, 1000, 1023, 1024, 1025} {
			b := EvenSplits(n, k)
			if len(b) != k+1 || b[0] != 0 || b[k] != n {
				t.Fatalf("EvenSplits(%d, %d) = %v: want %d bounds from 0 to %d", n, k, b, k+1, n)
			}
			minSz, maxSz := n, 0
			for w := 0; w < k; w++ {
				sz := b[w+1] - b[w]
				if sz < 0 {
					t.Fatalf("EvenSplits(%d, %d) = %v: range %d inverted", n, k, b, w)
				}
				minSz, maxSz = min(minSz, sz), max(maxSz, sz)
			}
			if maxSz-minSz > 1 {
				t.Errorf("EvenSplits(%d, %d) = %v: sizes differ by %d, want ≤1", n, k, b, maxSz-minSz)
			}
		}
	}
}
