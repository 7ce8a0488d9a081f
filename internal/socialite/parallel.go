package socialite

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// This file implements SociaLite's intra-node parallel evaluation: tables
// are sharded, worker threads evaluate the rule over driver shards and
// route head updates to the shard that owns the key, and a second phase
// folds each shard's updates without locks (the paper: "SociaLite tables
// are horizontally partitioned, or sharded, to support parallelism").

// EvalStats summarizes one sharded evaluation for the distributed
// engine's traffic accounting.
type EvalStats struct {
	// Changed lists keys whose stored value changed (tracked only when
	// requested — drives semi-naive recursion).
	Changed []uint32
	// RemoteBytes counts the bytes of head updates whose key is owned by a
	// different cluster node than selfNode.
	RemoteBytes int64
}

type kv struct {
	key uint32
	val float64
}

// emissionBytes is one head update on the wire: a 4-byte key and an 8-byte
// value.
const emissionBytes = 4 + 8

// EvalParallel is evalSharded on a pool borrowed through core.Exec.Local.
// Its only non-test caller is bench/'s Datalog replay; engines and the
// server hand evalSharded the pool they already hold.
func EvalParallel(rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (stats EvalStats, err error) {
	core.Exec{}.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		stats, err = evalSharded(pool, rule, lo, hi, delta, owner, selfNode, trackChanged)
		return 1
	})
	return stats, err
}

// evalSharded evaluates the rule for driver keys/sources in [lo,hi)
// (restricted to delta when non-nil, for vec drivers) on the pool's
// workers, folding into the head table. Every key's updates fold in
// ascending driver order whatever the pool's size: producers own ascending
// driver ranges and each shard drains them in producer order.
//
// owner, when non-nil, maps keys to cluster nodes; emissions owned by
// nodes other than selfNode are tallied in the returned stats (the data
// still folds — tables are shared in the simulation; the tally drives the
// modeled network).
func evalSharded(pool *par.Pool, rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (EvalStats, error) {
	var stats EvalStats
	if _, err := rule.driverSpan(); err != nil {
		return stats, err
	}
	headKeys := rule.Head.Table.NumKeys()
	workers := pool.Workers()

	// Driver shard bounds.
	span := hi - lo
	if span == 0 {
		return stats, nil
	}
	if uint32(workers) > span {
		workers = int(span)
	}
	shardOf := func(key uint32) int {
		s := int(uint64(key) * uint64(workers) / uint64(headKeys))
		if s >= workers {
			s = workers - 1
		}
		return s
	}
	each := func(body func(w int)) {
		backend.NewDense(pool, workers, func(lo, hi int) {
			for w := lo; w < hi; w++ {
				body(w)
			}
		}).Run()
	}

	// With a single worker no routing is needed, and a global aggregate
	// (one key, e.g. TRIANGLE) has one shard to route to: fold directly.
	if workers == 1 || headKeys == 1 || rule.Head.KeySlot < 0 {
		return evalDirect(rule, lo, hi, delta, owner, selfNode, trackChanged)
	}

	routed := make([][][]kv, workers) // [producer][consumerShard]
	each(func(w int) {
		buf := make([][]kv, workers)
		dlo := lo + graph.MustU32(int64(uint64(span)*uint64(w)/uint64(workers)))
		dhi := lo + graph.MustU32(int64(uint64(span)*uint64(w+1)/uint64(workers)))
		sink := func(key uint32, val float64) {
			// Shard buffers are sparse: an eager per-shard make would cost
			// more than amortized growth.
			s := shardOf(key)
			buf[s] = append(buf[s], kv{key, val})
		}
		rule.evalDriver(rule.newEnv(), dlo, dhi, delta, sink)
		routed[w] = buf
	})

	// Phase 2: shard owners fold their updates; no two workers touch the
	// same key.
	changedPer := make([][]uint32, workers)
	remoteBytes := make([]int64, workers)
	each(func(s int) {
		if trackChanged {
			total := 0
			for p := 0; p < workers; p++ {
				total += len(routed[p][s])
			}
			changedPer[s] = make([]uint32, 0, total)
		}
		for p := 0; p < workers; p++ {
			for _, u := range routed[p][s] {
				changed := rule.Head.Table.fold(rule.Head.Agg, u.key, u.val)
				if trackChanged && changed {
					changedPer[s] = append(changedPer[s], u.key)
				}
				if owner != nil && owner(u.key) != selfNode {
					remoteBytes[s] += emissionBytes
				}
			}
		}
	})
	for s := 0; s < workers; s++ {
		stats.Changed = append(stats.Changed, changedPer[s]...)
		stats.RemoteBytes += remoteBytes[s]
	}
	stats.Changed = dedup(stats.Changed)
	return stats, nil
}

// evalDirect evaluates without routing buffers, folding each emission
// immediately — the single-worker (and global-aggregate) path.
func evalDirect(rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (EvalStats, error) {
	var stats EvalStats
	sink := func(key uint32, val float64) {
		if rule.Head.Table.fold(rule.Head.Agg, key, val) && trackChanged {
			stats.Changed = append(stats.Changed, key)
		}
		if owner != nil && owner(key) != selfNode {
			stats.RemoteBytes += emissionBytes
		}
	}
	rule.evalDriver(rule.newEnv(), lo, hi, delta, sink)
	stats.Changed = dedup(stats.Changed)
	return stats, nil
}
