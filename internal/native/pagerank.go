package native

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/codec"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// PageRank implements core.Engine. g holds out-edges; the kernel builds the
// in-CSR once (the paper stores in-edges in CSR form so the gather streams,
// §3.1) and then runs the per-edge multiply-add loop.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return e.pageRankCluster(g, opt)
	}
	in := g.In()
	outDeg := g.OutDegrees()
	// The kernel's vectors are laid out with its inputs, before the clock
	// (a served query borrows them; CombBLAS and Galois allocate theirs
	// before their kernels too).
	n := int(g.NumVertices)
	ranks, spare := make([]float64, n), make([]float64, n)
	stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
		ranks = e.pageRankLocal(pool, in, outDeg, opt, tr, ranks, spare)
		return opt.Iterations
	})
	return &core.PageRankResult{Ranks: ranks, Stats: stats}, nil
}

// pageRankLocal is the single-node kernel over the in-CSR, on the caller's
// vectors (each in.NumVertices long, overwritten): the tuned kernel sweeps
// pr in place through the contributions in spare, the ablation baseline
// swaps pr with spare every iteration. It runs opt.Iterations iterations
// and returns the ranks, pr or spare.
func (e *Engine) pageRankLocal(pool *par.Pool, in *graph.CSR, outDeg []int64, opt core.PageRankOptions, tr *trace.Tracer,
	pr, spare []float64) []float64 {
	if e.tuning.ContribCaching {
		// Tuned path: the engine is a thin wrapper over the package's one
		// PageRank kernel — the engine-vs-native deltas in the harness
		// tables measure pure framework abstraction cost over the same
		// kernels.
		ranks, _ := PageRankInto(pool, backend.FromCSR(in), outDeg, opt.RandomJump, 0, opt.Iterations, 0, tr, pr, nil, spare)
		return ranks
	}
	next := spare
	for i := range pr {
		pr[i] = 1
	}
	// Ablation baseline (no contribution caching): the gather reads raw
	// ranks and divides per edge — two dependent loads and a divide per
	// in-edge instead of one streaming load. Rows are claimed dynamically
	// on the call's pool; each next[v] is one row's serial fold.
	gather := backend.NewSweep(pool, int(in.NumVertices), 0, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			sum := 0.0
			for _, j := range in.Neighbors(uint32(v)) {
				sum += (1 - opt.RandomJump) * pr[j] / float64(outDeg[j])
			}
			next[v] = opt.RandomJump + sum
		}
	})
	for it := 0; it < opt.Iterations; it++ {
		sp := tr.Begin("native.pr.iter", "pagerank iteration").Arg("iter", float64(it))
		gather.Run()
		pr, next = next, pr
		sp.End()
	}
	return pr
}

// PageRankInto runs the contribution-caching PageRank on the caller's
// pool and vectors: in is the in-edge pattern matrix (the paper stores
// in-edges in CSR form so the gather streams, §3.1), outDeg the
// out-degrees, jump the random-jump probability r, and pr, next and
// contrib vectors of in.NumRows elements. pr holds the ranks after done
// sweeps from the paper's all-ones start (done = 0: whatever pr holds is
// reset to all-ones), and the run continues from there to maxSweeps
// sweeps in all, stopping early once tol > 0 and no rank moves by more
// than tol. tr may be nil. Every sweep is a pure function of the ranks
// before it, so a run resumed from done sweeps ends on the same bits as a
// cold one. contrib is overwritten. A fixed-sweeps run (tol = 0)
// sweeps pr in place and returns it, and next may be nil; with tol > 0
// the returned ranks are pr or next (the two swap every sweep), so they
// are the caller's to reuse once it has read them. The count returned
// includes the done sweeps.
func PageRankInto(pool *par.Pool, in *backend.Matrix, outDeg []int64, jump, tol float64, maxSweeps, done int, tr *trace.Tracer,
	pr, next, contrib []float64) ([]float64, int) {
	if done == 0 {
		for i := range pr {
			pr[i] = 1
		}
	}
	pr, sweeps, _ := pageRankSweeps(pool, in, outDeg, jump, tol, done, maxSweeps, pr, next, contrib, tr)
	return pr, sweeps
}

// pageRankSweeps is native's sweep loop over the one backend
// PageRankSweep, run as (s, a, b) = (1−r, r, 1), from the ranks in pr
// after done sweeps up to maxSweeps. A fixed-sweeps run (tol = 0) sweeps
// pr in place; with tol > 0 each sweep reads pr and writes next, the
// buffers swap, and the convergence check compares them. It returns the
// final ranks, the sweeps run (done included), and whether the tolerance
// was met.
func pageRankSweeps(pool *par.Pool, in *backend.Matrix, outDeg []int64, jump, tol float64, done, maxSweeps int,
	pr, next, contrib []float64, tr *trace.Tracer) (ranks []float64, sweeps int, converged bool) {
	sweep := backend.NewPageRankSweep(pool, in, outDeg, 1-jump, jump, 1, contrib).WithTracer(tr)
	for sweeps = done; sweeps < maxSweeps && !converged; {
		sp := tr.Begin("native.pr.iter", "pagerank iteration").Arg("iter", float64(sweeps))
		sweeps++
		if tol == 0 {
			sweep.Run(pr, pr)
		} else {
			sweep.Run(next, pr)
			pr, next = next, pr
			converged = maxAbsDiff(pool, pr, next) <= tol
		}
		sp.End()
	}
	return pr, sweeps, converged
}

// maxAbsDiff returns the largest element-wise |a-b| as one dense pass on
// the caller's pool. Each chunk folds its partial into the shared maximum
// with one CAS loop at chunk end: the partials are non-negative floats,
// whose IEEE-754 bit patterns order like the numbers, and max is
// order-independent, so the result is bit-identical to a serial scan.
func maxAbsDiff(pool *par.Pool, a, b []float64) float64 {
	var worst atomic.Uint64
	backend.NewDense(pool, len(a), func(lo, hi int) {
		local := 0.0
		for i := lo; i < hi; i++ {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			if d > local {
				local = d
			}
		}
		for bits := math.Float64bits(local); ; {
			old := worst.Load()
			if bits <= old || worst.CompareAndSwap(old, bits) {
				return
			}
		}
	}).Run()
	return math.Float64frombits(worst.Load())
}

// pageRankCluster runs the paper's distributed native PageRank: 1-D
// vertex partitioning balanced by edges, boundary contribution exchange
// each iteration, optional message compression and overlap.
func (e *Engine) pageRankCluster(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	cfg := opt.Exec.ClusterConfig()
	cfg.Overlap = e.tuning.Overlap
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	in := g.In()
	outDeg := g.OutDegrees()
	// sendIDs[s][d] is the boundary plan: the vertices owned by node s
	// whose contributions node d needs. idPayloads[s*nodes+d] caches the
	// compressed encoding of that (static) id list: the structure never
	// changes across iterations, so real native code encodes it once and
	// ships only fresh values each round.
	sendIDs := part.SendIDs(g)
	idPayloads := make([][]byte, c.Nodes()*c.Nodes())
	n := int(g.NumVertices)

	pr := make([]float64, n)
	contrib := make([]float64, n) // ghost entries filled from messages
	for i := range pr {
		pr[i] = 1
	}
	for v := 0; v < n; v++ {
		if outDeg[v] > 0 {
			contrib[v] = (1 - opt.RandomJump) * pr[v] / float64(outDeg[v])
		}
	}
	// Without the layout optimization the gather reads raw ranks and
	// divides per edge, against a snapshot of the previous iteration (the
	// naive implementation's extra loads, divides, and full-array copy).
	var prPrev []float64
	if !e.tuning.ContribCaching {
		prPrev = make([]float64, n)
		copy(prPrev, pr)
	}
	// Per-node resident data: its partition's in-edges, rank/contrib state,
	// and ghost slots.
	for node := 0; node < c.Nodes(); node++ {
		lo, hi := part.Range(node)
		edges := in.Offsets[hi] - in.Offsets[lo]
		state := int64(hi-lo) * 24 // pr + next + contrib
		var ghost int64
		for s := 0; s < c.Nodes(); s++ {
			ghost += int64(len(sendIDs[s][node])) * 12
		}
		c.SetBaselineMemory(node, edges*4+int64(hi-lo+1)*8+state+ghost)
	}

	tr := cfg.Trace
	// Fault tolerance (DESIGN.md §10): an iteration's inter-phase state is
	// the rank, contribution, and (naive mode) previous-rank arrays; the
	// in-flight boundary messages live in the cluster inbox, which the
	// recovery driver checkpoints alongside. Restores copy into the
	// existing arrays so the closures' aliases stay valid.
	rec := c.Recovery(
		func() ([]byte, error) {
			out := codec.AppendFloat64s(nil, pr)
			out = codec.AppendFloat64s(out, contrib)
			out = codec.AppendFloat64s(out, prPrev) // empty when caching contributions
			return out, nil
		},
		func(data []byte) error {
			for _, dst := range [][]float64{pr, contrib, prPrev} {
				var err error
				if data, err = restoreFloat64s(data, dst); err != nil {
					return err
				}
			}
			return nil
		})
	runIter := func(it int) (bool, error) {
		if it >= opt.Iterations {
			return true, nil
		}
		iterStart := c.VirtualSeconds()
		err := c.RunPhase(func(node int) error {
			// Apply contributions received from the previous iteration.
			for _, payload := range c.Recv(node) {
				if err := e.applyPRMessage(payload, contrib); err != nil {
					return err
				}
			}
			lo, hi := part.Range(node)
			if e.tuning.ContribCaching {
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, j := range in.Neighbors(v) {
						sum += contrib[j]
					}
					pr[v] = opt.RandomJump + sum
				}
			} else {
				scale := 1 - opt.RandomJump
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, j := range in.Neighbors(v) {
						if d := outDeg[j]; d > 0 {
							sum += scale * prPrev[j] / float64(d)
						}
					}
					pr[v] = opt.RandomJump + sum
				}
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		// Refresh local contributions and ship boundary values. Done as a
		// separate loop so every node's reads of contrib (above) complete
		// before writes — the phase model runs nodes sequentially, so
		// without this split later nodes would see this iteration's
		// contributions.
		if err := c.RunPhase(func(node int) error {
			lo, hi := part.Range(node)
			for v := lo; v < hi; v++ {
				if outDeg[v] > 0 {
					contrib[v] = (1 - opt.RandomJump) * pr[v] / float64(outDeg[v])
				}
			}
			if prPrev != nil {
				copy(prPrev[lo:hi], pr[lo:hi])
			}
			if it == opt.Iterations-1 {
				return nil // final iteration: nothing left to exchange
			}
			for d := 0; d < c.Nodes(); d++ {
				ids := sendIDs[node][d]
				if len(ids) == 0 {
					continue
				}
				cached := &idPayloads[node*c.Nodes()+d]
				if e.tuning.Compression && *cached == nil {
					idBytes, err := codec.EncodeIDsAuto(ids, g.NumVertices)
					if err != nil {
						return err
					}
					*cached = idBytes
				}
				payload, err := e.encodePRMessage(ids, *cached, contrib)
				if err != nil {
					return err
				}
				c.Send(node, d, payload)
			}
			return nil
		}); err != nil {
			return false, err
		}
		tr.RecordVirtual(trace.PidEngine, "native.pr.iter", fmt.Sprintf("iteration %d", it),
			iterStart, c.VirtualSeconds()-iterStart, nil)
		return false, nil
	}
	if err := rec.Run(runIter); err != nil {
		return nil, err
	}

	return &core.PageRankResult{
		Ranks: pr,
		Stats: core.SimulatedStats(c, opt.Iterations),
	}, nil
}

// restoreFloat64s decodes the next checkpointed array into dst — which
// must have the length the snapshot recorded — and returns the remaining
// bytes. Copying in place keeps every alias of dst valid across a restore.
func restoreFloat64s(data []byte, dst []float64) ([]byte, error) {
	vals, rest, err := codec.Float64s(data)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(dst) {
		return nil, fmt.Errorf("native: checkpoint array has %d values, want %d", len(vals), len(dst))
	}
	copy(dst, vals)
	return rest, nil
}

// encodePRMessage packs (id, contribution) pairs. Uncompressed: 4-byte id +
// 8-byte double per vertex (the paper's 12 B/edge-message behaviour).
// Compressed: the (cached) delta+varint id block plus float32 values — the
// paper's 2.2× PageRank traffic reduction (§6.1.1); the id structure is
// static across iterations, so only the values are re-encoded.
func (e *Engine) encodePRMessage(ids []uint32, idBytes []byte, contrib []float64) ([]byte, error) {
	if !e.tuning.Compression {
		out := make([]byte, 4+12*len(ids))
		binary.LittleEndian.PutUint32(out, graph.MustU32(int64(len(ids))))
		pos := 4
		for _, id := range ids {
			binary.LittleEndian.PutUint32(out[pos:], id)
			binary.LittleEndian.PutUint64(out[pos+4:], math.Float64bits(contrib[id]))
			pos += 12
		}
		return out, nil
	}
	out := make([]byte, 8+len(idBytes)+4*len(ids))
	binary.LittleEndian.PutUint32(out, graph.MustU32(int64(len(ids)))|0x80000000)
	binary.LittleEndian.PutUint32(out[4:], graph.MustU32(int64(len(idBytes))))
	copy(out[8:], idBytes)
	pos := 8 + len(idBytes)
	for _, id := range ids {
		binary.LittleEndian.PutUint32(out[pos:], math.Float32bits(float32(contrib[id])))
		pos += 4
	}
	return out, nil
}

// applyPRMessage unpacks a message into the contribution array.
func (e *Engine) applyPRMessage(payload []byte, contrib []float64) error {
	if len(payload) < 4 {
		return fmt.Errorf("native: short pagerank message (%d bytes)", len(payload))
	}
	header := binary.LittleEndian.Uint32(payload)
	if header&0x80000000 == 0 {
		count := int(header)
		if len(payload) != 4+12*count {
			return fmt.Errorf("native: pagerank message %d bytes, want %d", len(payload), 4+12*count)
		}
		pos := 4
		for i := 0; i < count; i++ {
			id := binary.LittleEndian.Uint32(payload[pos:])
			contrib[id] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos+4:]))
			pos += 12
		}
		return nil
	}
	count := int(header &^ 0x80000000)
	if len(payload) < 8 {
		return fmt.Errorf("native: short compressed pagerank message")
	}
	idLen := int(binary.LittleEndian.Uint32(payload[4:]))
	if len(payload) != 8+idLen+4*count {
		return fmt.Errorf("native: compressed pagerank message %d bytes, want %d", len(payload), 8+idLen+4*count)
	}
	ids, err := codec.DecodeIDs(payload[8 : 8+idLen])
	if err != nil {
		return err
	}
	if len(ids) != count {
		return fmt.Errorf("native: compressed pagerank message decoded %d ids, want %d", len(ids), count)
	}
	pos := 8 + idLen
	for _, id := range ids {
		contrib[id] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:])))
		pos += 4
	}
	return nil
}
