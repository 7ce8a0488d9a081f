package graph

import (
	"sort"

	"graphmaze/internal/par"
)

// radixSortThreshold is the edge count below which the comparator sort is
// used: the radix sort's histogram passes only pay off once the input
// dwarfs the 2^16-entry count tables.
const radixSortThreshold = 1 << 14

// sortEdgesByKey sorts edges by (Src, Dst), the order Builder.Build's
// dedup scan needs. Large inputs take a radix path: each edge packs into
// a uint64 key (src in the high half, so key order equals the comparator
// order), then an LSD radix sort over 16-bit digits runs with parallel
// per-worker histogram and scatter passes — CSR construction is the setup
// cost of every experiment, and the comparator sort.Slice it replaces
// spent most of its time in interface calls. Every pass runs on one pool
// started for the call, over the same static bounds.
func sortEdgesByKey(edges []Edge) {
	n := len(edges)
	if n < radixSortThreshold {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
		return
	}
	// No more workers than keys: no range is empty, so every histogram
	// pass fills each worker's table.
	pool := par.NewPool(min(par.NumWorkers(), n))
	defer pool.Close()
	bounds := par.EvenSplits(n, pool.Workers())
	keys := make([]uint64, n)
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = uint64(edges[i].Src)<<32 | uint64(edges[i].Dst)
		}
	}), bounds)
	keys = radixSortUint64(pool, bounds, keys, make([]uint64, n))
	pool.RunStatic(par.RunnerFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			k := keys[i]
			//lint:ignore truncate key packs two uint32 halves; the shift isolates the 32-bit src
			src := uint32(k >> 32)
			//lint:ignore truncate key packs two uint32 halves; the low word is the 32-bit dst
			dst := uint32(k)
			edges[i] = Edge{Src: src, Dst: dst}
		}
	}), bounds)
}

// radixSortUint64 sorts keys ascending with a least-significant-digit
// radix sort over 16-bit digits, using tmp as the swap buffer. It returns
// the slice holding the sorted data (either keys or tmp, depending on how
// many passes ran). Passes whose digit is constant across all keys —
// every pass above the graph's vertex-id width — are detected from the
// histogram and skipped. bounds (len pool.Workers()+1) is the static
// split every pass runs over.
func radixSortUint64(pool *par.Pool, bounds []int, keys, tmp []uint64) []uint64 {
	const digitBits = 16
	const buckets = 1 << digitBits
	n := len(keys)
	workers := len(bounds) - 1
	hist := make([][]int64, workers)
	for shift := 0; shift < 64; shift += digitBits {
		// Parallel per-worker histograms over the same static ranges the
		// scatter pass will use: RunStatic hands worker w the same range
		// in both passes, which is what makes the scatter stable.
		pool.RunStatic(par.RunnerFunc(func(w, lo, hi int) {
			h := hist[w]
			if h == nil {
				h = make([]int64, buckets)
				hist[w] = h
			} else {
				clear(h)
			}
			for i := lo; i < hi; i++ {
				h[(keys[i]>>shift)&(buckets-1)]++
			}
		}), bounds)
		// Exclusive prefix over (digit, worker): worker w's first write for
		// digit d lands after all smaller digits and after workers < w,
		// which keeps the pass stable. A digit owning every key means the
		// pass would be the identity — skip it.
		var running int64
		trivial := false
		for d := 0; d < buckets; d++ {
			start := running
			for w := 0; w < workers; w++ {
				c := hist[w][d]
				hist[w][d] = start
				start += c
			}
			if start-running == int64(n) {
				trivial = true
				break
			}
			running = start
		}
		if trivial {
			continue
		}
		pool.RunStatic(par.RunnerFunc(func(w, lo, hi int) {
			pos := hist[w]
			for i := lo; i < hi; i++ {
				d := (keys[i] >> shift) & (buckets - 1)
				tmp[pos[d]] = keys[i]
				pos[d]++
			}
		}), bounds)
		keys, tmp = tmp, keys
	}
	return keys
}
