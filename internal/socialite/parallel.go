package socialite

import (
	"graphmaze/internal/backend"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
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
	key    uint32
	scalar float64
	vec    Value // nil for scalar emissions (stored inline, no alloc)
}

// EvalParallel is evalSharded on a pool borrowed through core.Exec.Local.
// Its only non-test caller is bench/'s Datalog replay; engines and the
// server hand evalSharded the pool they already hold.
func EvalParallel(rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (stats EvalStats, err error) {
	core.Exec{}.Local(func(pool *backend.Pool, _ *trace.Tracer) int {
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
func evalSharded(pool *backend.Pool, rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (EvalStats, error) {
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
		sink := func(key uint32, val Value) {
			s := shardOf(key)
			e := kv{key: key}
			if len(val) == 1 {
				e.scalar = val[0]
			} else {
				e.vec = val
			}
			// Shard buffers are sparse: an eager per-shard make would cost
			// more than amortized growth.
			buf[s] = append(buf[s], e)
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
				var changed bool
				width := 1
				if u.vec == nil {
					changed = rule.Head.Table.foldScalar(rule.Head.Agg, u.key, u.scalar)
				} else {
					changed = rule.Head.Table.fold(rule.Head.Agg, u.key, u.vec)
					width = len(u.vec)
				}
				if trackChanged && changed {
					changedPer[s] = append(changedPer[s], u.key)
				}
				if owner != nil && owner(u.key) != selfNode {
					remoteBytes[s] += int64(4 + 8*width)
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
// immediately — the single-worker (and global-aggregate) path. SociaLite
// compiles rules to tight loops; the hot shape the matcher recognises
// avoids the generic recursive evaluator entirely.
func evalDirect(rule *Rule, lo, hi uint32, delta []uint32, owner func(uint32) int, selfNode int, trackChanged bool) (EvalStats, error) {
	var stats EvalStats
	sink := func(key uint32, val Value) {
		var changed bool
		width := len(val)
		if width == 1 {
			changed = rule.Head.Table.foldScalar(rule.Head.Agg, key, val[0])
		} else {
			changed = rule.Head.Table.fold(rule.Head.Agg, key, val)
		}
		if trackChanged && changed {
			stats.Changed = append(stats.Changed, key)
		}
		if owner != nil && owner(key) != selfNode {
			stats.RemoteBytes += int64(4 + 8*width)
		}
	}
	if sh, ok := matchEdgeShape(rule); ok {
		sh.evalCompiled(lo, hi, delta, sink)
	} else {
		rule.evalDriver(rule.newEnv(), lo, hi, delta, sink)
	}
	stats.Changed = dedup(stats.Changed)
	return stats, nil
}

// evalCompiled is the moral equivalent of SociaLite's rule-to-Java
// compilation for the matched shape: the loop-invariant prefix evaluates
// once per source, the inner loop is a plain scan over the adjacency list.
func (s *edgeShape) evalCompiled(lo, hi uint32, delta []uint32, sink emit) {
	env := s.rule.newEnv()
	edge := s.edge.Table
	visit := func(src uint32) {
		val, ok := s.sourceValue(env, src)
		if !ok || isNaN(val) {
			return
		}
		for _, dst := range edge.Neighbors(src) {
			sink(dst, val)
		}
	}
	if delta != nil {
		for _, key := range delta {
			if key >= lo && key < hi {
				visit(key)
			}
		}
		return
	}
	for key := lo; key < hi; key++ {
		visit(key)
	}
}
