package serve

import (
	"slices"

	"graphmaze/internal/graph"
)

// Carried state (DESIGN.md §15): what lets a BFS or connected-components
// miss after a delta cost what the delta changed, and a fixed-iters
// PageRank miss cost only the sweeps its epoch has not run yet. Beside the
// per-epoch bound state a served graph keeps, per BFS source and for CC,
// the result vector of the newest epoch it was computed at, and the
// cleaned edges of every delta since the oldest of those vectors. A miss
// at epoch E takes its vector out (ownership moves: the repair is in
// place, and no second query can see it half repaired), repairs it with
// the pending edges of (its epoch, E], reduces it, and puts it back tagged
// E.
//
// Three bounds keep this from growing with traffic, each a property of
// the graph and none a setting: the vectors of one graph may total at
// most the bytes of its own CSR (the least recently refreshed goes
// first), a vector that has fallen further behind than one pending entry
// per vertex is dropped (a cold run is the better deal by then, and the
// pending list is what it bounds), and pending deltas no vector predates
// are trimmed. Carried state holds vectors and edge lists, never a
// snapshot.
//
// PageRank carries one rank vector per graph, apart from those bounds: a
// fixed-iters answer is a prefix of one deterministic trajectory, so the
// ranks after s sweeps at (epoch, jump) swept N−s more times are the
// N-sweep answer bit for bit. Nothing repairs it across epochs (a warm
// start there is a different float sequence); an older epoch's vector is
// only a buffer to run cold in.

// carried is one result vector and the epoch it is exact for.
type carried struct {
	epoch  graph.Epoch
	dist   []int32  // BFS distances from one source, or
	labels []uint32 // min-id component labels
	// stamp orders vectors by their last put: the budget evicts the
	// smallest.
	stamp uint64
}

func (c *carried) bytes() int64 { return 4 * int64(cap(c.dist)+cap(c.labels)) }

// rankSlot is the PageRank vector a graph carries: the ranks after sweeps
// sweeps from all-ones with random jump jump, exact for epoch. vec is nil
// while a miss holds it, and before the first.
type rankSlot struct {
	epoch  graph.Epoch
	jump   float64
	sweeps int
	vec    []float64
}

// takeRanks hands a fixed-iters PageRank miss at (epoch, jump, iters) the
// vector to run in, with the sweeps it already holds: the slot's own
// ranks when they are exactly (epoch, jump) and no further than iters,
// and its buffer, to run cold in, when they are from an older epoch.
// Otherwise — a slot already past iters, another jump, a straggler pinned
// to an older snapshot than the slot's — it returns nil and the miss runs
// cold on scratch, leaving the slot to the queries it serves. Ownership
// moves, as in takeCarried: until putRanks no other query sees the vector.
func (g *servedGraph) takeRanks(epoch graph.Epoch, jump float64, iters int) (vec []float64, done int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &g.ranks
	switch {
	case r.vec == nil:
		return nil, 0
	case r.epoch == epoch && r.jump == jump && r.sweeps <= iters:
		done = r.sweeps
	case r.epoch >= epoch:
		return nil, 0
	}
	vec, r.vec = r.vec, nil
	g.settle()
	return vec, done
}

// putRanks offers r to the slot, which keeps it unless it has since
// gained a newer epoch, or the same epoch with at least as many sweeps. It
// returns the vector left over, the caller's to reuse: r.vec when the slot
// refused it, else the one r displaced (nil from an empty slot).
func (g *servedGraph) putRanks(r rankSlot) (spare []float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if have := g.ranks; have.vec != nil && (have.epoch > r.epoch || have.epoch == r.epoch && have.sweeps >= r.sweeps) {
		return r.vec
	}
	spare, g.ranks = g.ranks.vec, r
	g.settle()
	return spare
}

// notePending records the cleaned edges of the delta that produced epoch
// (the graph now has n vertices) and applies the falling-behind bound.
// handleDelta calls it under the ingest lock, so epochs arrive in order;
// an epoch that does not follow the last one recorded (the graph was
// advanced behind the service's back) voids what came before it.
func (g *servedGraph) notePending(epoch graph.Epoch, added []graph.Edge, n uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.pending) > 0 && epoch != g.pendingBase+graph.Epoch(len(g.pending)) {
		g.pending = slices.Delete(g.pending, 0, len(g.pending))
	}
	if len(g.pending) == 0 {
		g.pendingBase = epoch
	}
	g.pending = append(g.pending, added)
	for key, c := range g.carriedVecs {
		run, ok := g.pendingRun(c.epoch, epoch)
		// One per edge plus one per delta, so that a run of empty deltas
		// weighs something too.
		weight := len(run)
		for _, d := range run {
			weight += len(d)
		}
		if !ok || weight > int(n) {
			delete(g.carriedVecs, key)
		}
	}
	g.settle()
}

// pendingRun returns the cleaned deltas that turned epoch from into epoch
// to, oldest first; ok is false when the pending list does not cover all
// of (from, to]. The caller holds g.mu and must not modify the edges.
func (g *servedGraph) pendingRun(from, to graph.Epoch) (run [][]graph.Edge, ok bool) {
	if from >= to {
		return nil, from == to
	}
	if from+1 < g.pendingBase || to >= g.pendingBase+graph.Epoch(len(g.pending)) {
		return nil, false
	}
	return g.pending[from+1-g.pendingBase : to+1-g.pendingBase], true
}

// takeCarried removes and returns the vector carried under key together
// with the edges that bring it up to epoch. It returns nil, and the miss
// runs cold, when there is no vector, when the vector is newer than epoch
// (the caller is a straggler pinned to an older snapshot, and the vector
// stays for current queries), or when the pending list cannot bridge the
// gap.
func (g *servedGraph) takeCarried(key string, epoch graph.Epoch) (*carried, []graph.Edge) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.carriedVecs[key]
	if c == nil || c.epoch > epoch {
		return nil, nil
	}
	run, ok := g.pendingRun(c.epoch, epoch)
	if !ok {
		return nil, nil
	}
	edges := slices.Concat(run...) // before settle trims what run aliases
	delete(g.carriedVecs, key)
	g.settle()
	return c, edges
}

// putCarried stores c, exact for c.epoch, under key — unless a vector at
// least as new is already there (c came from a straggler, or from a second
// miss that ran cold while the first held the vector). budget is the byte
// size of the CSR the vector was computed on.
func (g *servedGraph) putCarried(key string, c *carried, budget int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if have := g.carriedVecs[key]; have != nil && have.epoch >= c.epoch {
		return
	}
	g.stamp++
	c.stamp = g.stamp
	g.carriedVecs[key] = c
	for g.carriedBytes() > budget {
		oldest := ""
		for k, v := range g.carriedVecs {
			if oldest == "" || v.stamp < g.carriedVecs[oldest].stamp {
				oldest = k
			}
		}
		delete(g.carriedVecs, oldest)
	}
	g.settle()
}

func (g *servedGraph) carriedBytes() (total int64) {
	for _, c := range g.carriedVecs {
		total += c.bytes()
	}
	return total
}

// settle trims the pending deltas no carried vector predates and
// republishes the two gauges; carried_bytes counts the rank slot too. The
// caller holds g.mu.
func (g *servedGraph) settle() {
	end := g.pendingBase + graph.Epoch(len(g.pending))
	keepFrom := end
	for _, c := range g.carriedVecs {
		keepFrom = min(keepFrom, c.epoch+1)
	}
	if keepFrom > g.pendingBase {
		g.pending = slices.Delete(g.pending, 0, int(keepFrom-g.pendingBase))
		g.pendingBase = keepFrom
	}
	var edges int
	for _, added := range g.pending {
		edges += len(added)
	}
	g.carriedGauge.Set(float64(g.carriedBytes() + 8*int64(cap(g.ranks.vec))))
	g.pendingGauge.Set(float64(edges))
}
