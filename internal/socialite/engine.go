package socialite

import (
	"fmt"
	"math"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// Engine is the SociaLite-model engine. The network-optimized variant uses
// multiple sockets per node pair and batches head-update transfers — the
// §6.1.3 improvements this paper contributed to SociaLite (Table 7); the
// unoptimized variant models the published system before those changes.
type Engine struct {
	netOptimized bool
}

var _ core.Engine = (*Engine)(nil)

// New returns the network-optimized SociaLite engine (the configuration
// the paper's results use).
func New() *Engine { return &Engine{netOptimized: true} }

// NewUnoptimized returns the pre-optimization engine: single socket pairs
// and per-tuple head-update messages (Table 7's "before" column).
func NewUnoptimized() *Engine { return &Engine{netOptimized: false} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "SociaLite" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: false, ProgrammingModel: "datalog"}
}

func (e *Engine) newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Comm.Bandwidth == 0 {
		if e.netOptimized {
			cfg.Comm = cluster.MultiSocket()
		} else {
			cfg.Comm = cluster.SingleSocket()
		}
	}
	return cluster.New(cfg)
}

// newPartitioned builds a simulated-cluster call's cluster and splits g
// across its nodes, charging each node 8 bytes per edge it owns and
// perVertex bytes per vertex as baseline memory. A single-node call gets
// nil, nil.
func (e *Engine) newPartitioned(x core.Exec, g *graph.CSR, perVertex int64) (*cluster.Cluster, *graph.Partition1D, error) {
	if x.Cluster == nil {
		return nil, nil, nil
	}
	c, err := e.newCluster(x.ClusterConfig())
	if err != nil {
		return nil, nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, nil, err
	}
	for node := 0; node < c.Nodes(); node++ {
		lo, hi := part.Range(node)
		c.SetBaselineMemory(node, (g.Offsets[hi]-g.Offsets[lo])*8+int64(hi-lo)*perVertex)
	}
	return c, part, nil
}

// accountTraffic charges one node's head-update (or table-transfer)
// traffic. The optimized engine merges communication data for batch
// processing — roughly one message per destination shard (§6.1.3); the
// unoptimized engine flushes small socket buffers, paying per-4KB message
// overheads on its single socket pair.
func (e *Engine) accountTraffic(c *cluster.Cluster, node int, bytes int64, destinations int) {
	if bytes <= 0 {
		return
	}
	msgs := int64(destinations)
	if e.netOptimized {
		// Batches still flush at 64 KB.
		if chunks := bytes/(64<<10) + 1; chunks > msgs {
			msgs = chunks
		}
	} else if chunks := bytes/4096 + 1; chunks > msgs {
		msgs = chunks
	}
	if msgs < 1 {
		msgs = 1
	}
	c.Account(node, bytes, msgs)
}

// PageRank implements core.Engine with the paper's distributed-optimized
// rule pair (§3.1): a seed rule and a join over RANK, OUTEDGE and OUTDEG
// with $SUM in the head.
func (e *Engine) PageRank(g *graph.CSR, opt core.PageRankOptions) (*core.PageRankResult, error) {
	opt, err := core.CheckPageRankInput(g, opt)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices
	outEdge := NewEdgeTable("OUTEDGE", g)
	outDeg := NewVecTable("OUTDEG", n)
	outDeg.FillScalars(func(v uint32) float64 { return float64(g.Degree(v)) })
	rank := NewVecTable("RANK", n)
	rank.FillScalars(func(uint32) float64 { return 1 })
	rank2 := NewVecTable("RANK2", n)

	// The paper's distributed-optimized rule (§3.1), compiled from source.
	// The assignment is written before the edge atom — SociaLite's planner
	// hoists source-only expressions above the edge enumeration.
	reg := NewRegistry()
	reg.Register(outEdge)
	reg.Register(outDeg)
	reg.Register(rank)
	reg.Register(rank2)
	rule, err := Parse(fmt.Sprintf(
		"RANK2[n]($SUM(v)) :- RANK[s](v0), OUTDEG[s](d), v = (1-%g)*v0/d, OUTEDGE[s](n).",
		opt.RandomJump), reg)
	if err != nil {
		return nil, err
	}

	// runIteration seeds RANK2 (the seed rule RANK2[n](r), a purely local
	// assignment, so every shard is seeded before any sum crosses a shard
	// boundary), evaluates the join into it, and swaps the two tables: the
	// compiled rule is rebound to this iteration's input and output.
	runIteration := func(eval func() error) error {
		rank2.FillScalars(func(uint32) float64 { return opt.RandomJump })
		rule.Driver.Vec.Table, rule.Head.Table = rank, rank2
		if err := eval(); err != nil {
			return err
		}
		rank, rank2 = rank2, rank
		return nil
	}

	c, part, err := e.newPartitioned(opt.Exec, g, 40)
	if err != nil {
		return nil, err
	}
	if c == nil {
		// The matcher lowers the join onto one seeded SpMV per iteration
		// over the edge table's by-destination index, built here with the
		// other tables.
		outEdge.transposed()
	}
	// One pool per call: a single-node iteration evaluates the rule on it
	// whole, a cluster iteration shard by shard on every node.
	stats := opt.Exec.Local(func(pool *par.Pool, tr *trace.Tracer) int {
		for it := 0; it < opt.Iterations && err == nil; it++ {
			if c == nil {
				sp := tr.Begin("socialite.rule", "rule evaluation").Arg("iter", float64(it))
				err = runIteration(func() error { return EvalOnce(pool, rule) })
				sp.End()
				continue
			}
			iterStart := c.VirtualSeconds()
			err = runIteration(func() error {
				return c.RunPhase(func(node int) error {
					lo, hi := part.Range(node)
					stats, err := evalSharded(pool, rule, lo, hi, nil, part.Owner, node, false)
					if err != nil {
						return err
					}
					e.accountTraffic(c, node, stats.RemoteBytes, c.Nodes()-1)
					return nil
				})
			})
			if err == nil {
				tr.RecordVirtual(trace.PidEngine, "socialite.rule",
					fmt.Sprintf("rule evaluation %d", it), iterStart, c.VirtualSeconds()-iterStart, nil)
			}
		}
		return opt.Iterations
	})
	if err != nil {
		return nil, err
	}
	if c != nil {
		stats = core.SimulatedStats(c, opt.Iterations)
	}
	return &core.PageRankResult{Ranks: vecToFloats(rank, n), Stats: stats}, nil
}

func vecToFloats(t *VecTable, n uint32) []float64 {
	out := make([]float64, n)
	t.ForEach(func(k uint32, v float64) { out[k] = v })
	return out
}

// BFS implements core.Engine with the paper's recursive rule
//
//	BFS(t, $MIN(d)) :- BFS(s, d0), EDGE(s, t), d = d0+1.
//
// evaluated semi-naively: each round only the delta (newly improved keys)
// drives the join (§3.1 of the companion papers [30,31]).
func (e *Engine) BFS(g *graph.CSR, opt core.BFSOptions) (*core.BFSResult, error) {
	opt, err := core.CheckBFSInput(g, opt)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices
	edge := NewEdgeTable("EDGE", g)
	dist := NewVecTable("BFS", n)
	dist.Put(opt.Source, 0)

	// The paper's recursive rule, compiled from source (assignment hoisted
	// above the edge atom by the planner).
	reg := NewRegistry()
	reg.Register(edge)
	reg.Register(dist)
	rule, err := Parse("BFS(t, $MIN(d)) :- BFS(s, d0), d = d0 + 1, EDGE(s, t).", reg)
	if err != nil {
		return nil, err
	}

	c, part, err := e.newPartitioned(opt.Exec, g, 24)
	if err != nil {
		return nil, err
	}
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) (rounds int) {
		if c == nil {
			// The shared driver lowers the rule's shape onto the backend's
			// level step; EDGE has no in-edge view, so every level pushes.
			rounds, err = Fixpoint(pool, rule)
			return rounds
		}
		// A round is one phase: every node evaluates the delta's sources
		// it owns, on the call's one pool.
		rounds, err = seminaive(rule, []uint32{opt.Source}, func(delta []uint32) ([]uint32, error) {
			var next []uint32
			err := c.RunPhase(func(node int) error {
				lo, hi := part.Range(node)
				stats, err := evalSharded(pool, rule, lo, hi, delta, part.Owner, node, true)
				if err != nil {
					return err
				}
				e.accountTraffic(c, node, stats.RemoteBytes, c.Nodes()-1)
				next = append(next, stats.Changed...)
				c.Account(node, 1, 1) // fixpoint check
				return nil
			})
			// Deduplicate: a key may have been improved by several nodes.
			return dedup(next), err
		})
		return rounds
	})
	if err != nil {
		return nil, err
	}
	if c != nil {
		stats = core.SimulatedStats(c, stats.Iterations)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	dist.ForEach(func(k uint32, v float64) { out[k] = int32(v) })
	return &core.BFSResult{Distances: out, Stats: stats}, nil
}

func dedup(keys []uint32) []uint32 {
	seen := make(map[uint32]bool, len(keys))
	w := 0
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			keys[w] = k
			w++
		}
	}
	return keys[:w]
}

// TriangleCount implements core.Engine with the paper's three-way join
//
//	TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	edge := NewEdgeTable("EDGE", g)
	tri := NewVecTable("TRIANGLE", 1)
	// The paper's three-way join, verbatim (§3.2).
	reg := NewRegistry()
	reg.Register(edge)
	reg.Register(tri)
	rule, err := Parse("TRIANGLE(0, $INC(1)) :- EDGE(x,y), EDGE(y,z), EDGE(x,z).", reg)
	if err != nil {
		return nil, err
	}

	c, part, err := e.newPartitioned(opt.Exec, g, 16)
	if err != nil {
		return nil, err
	}
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		if c == nil {
			// A global $INC(1): chunk partials on the call's pool.
			err = EvalOnce(pool, rule)
			return 1
		}
		err = c.RunPhase(func(node int) error {
			lo, hi := part.Range(node)
			// Counts aggregate into node-local partials; only the partial
			// sum crosses the network. The body join, however, ships
			// tuples to the shards holding EDGE[y] and EDGE[x]: charge 8
			// bytes per cross-shard hop, batched per destination.
			var joinBytes int64
			if _, err := evalSharded(pool, rule, lo, hi, nil, nil, 0, false); err != nil {
				return err
			}
			for x := lo; x < hi; x++ {
				for _, y := range g.Neighbors(x) {
					if part.Owner(y) != node {
						// (x,y) ships to owner(y) for the EDGE(y,z) join,
						// and each candidate (x,z) may hop again for the
						// check.
						joinBytes += 8 + int64(len(g.Neighbors(y)))*8
					}
				}
			}
			e.accountTraffic(c, node, joinBytes, c.Nodes()-1)
			c.Account(node, 8, 1) // count reduction
			return nil
		})
		return 1
	})
	if err != nil {
		return nil, err
	}
	if c != nil {
		stats = core.SimulatedStats(c, 1)
	}
	count := int64(0)
	if v, ok := tri.Get(0); ok {
		count = int64(v)
	}
	return &core.TriangleResult{Count: count, Stats: stats}, nil
}

// CollabFilter implements core.Engine. SociaLite keeps the user and item
// factor vectors in tables keyed by vertex (paper §3.2): a gradient rule
// joins RATING with both factor tables and $SUMs into GRADP[u], its mirror
// over RATINGT into GRADQ[v], and apply rules assign P2[u] and Q2[v]. Every
// head is keyed by its driver's own key, so each rule is a fold of that
// key's own row in row order, and runs here as one: over every row on the
// call's pool at one node; on a cluster, over each node's owned user and
// item rows, after the factor tables transfer to the nodes whose joins
// read them. SGD is inexpressible.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Method == core.SGD {
		return nil, core.ErrUnsupported
	}
	k := opt.K
	p := newCFSide(r.ByUser, core.InitFactors(r.NumUsers, k, opt.Seed), opt.LambdaP)
	q := newCFSide(r.ByItem, core.InitFactors(r.NumItems, k, opt.Seed+1), opt.LambdaQ)
	p.other, q.other = q, p

	var c *cluster.Cluster
	var userPart, itemPart *graph.Partition1D
	if opt.Exec.Cluster != nil {
		c, err = e.newCluster(opt.Exec.ClusterConfig())
		if err != nil {
			return nil, err
		}
		userPart, err = graph.NewPartition1D(r.ByUser, c.Nodes())
		if err != nil {
			return nil, err
		}
		itemPart, err = graph.NewPartition1D(r.ByItem, c.Nodes())
		if err != nil {
			return nil, err
		}
		for node := 0; node < c.Nodes(); node++ {
			ulo, uhi := userPart.Range(node)
			ratings := r.ByUser.Offsets[uhi] - r.ByUser.Offsets[ulo]
			c.SetBaselineMemory(node, ratings*12+int64(uhi-ulo)*int64(k)*8+int64(r.NumItems)*int64(k)*8/int64(c.Nodes()))
		}
	}

	gamma := opt.LearningRate
	rmse := make([]float64, 0, opt.Iterations)

	// rows runs row over users [ulo,uhi) and items [ilo,ihi) in one pass
	// on the pool, 64-row chunks claimed dynamically (a row costs its
	// degree); em is K floats of scratch for the chunk.
	rows := func(pool *par.Pool, ulo, uhi, ilo, ihi uint32, row func(s *cfSide, key uint32, em []float64)) {
		nu := int(uhi - ulo)
		backend.NewSweep(pool, nu+int(ihi-ilo), 64, func(_, lo, hi int) {
			em := make([]float64, k)
			for i := lo; i < hi; i++ {
				if i < nu {
					row(p, ulo+uint32(i), em)
				} else {
					row(q, ilo+uint32(i-nu), em)
				}
			}
		}).Run()
	}
	grad := (*cfSide).gradRow
	apply := func(s *cfSide, key uint32, _ []float64) { s.applyRow(key, k, gamma) }

	// evalRules folds one iteration's gradient rows, then its apply rows,
	// on the call's pool: over every key for a single-node run, over each
	// node's owned keys on a cluster.
	evalRules := func(pool *par.Pool) error {
		if c == nil {
			rows(pool, 0, r.NumUsers, 0, r.NumItems, grad)
			rows(pool, 0, r.NumUsers, 0, r.NumItems, apply)
			return nil
		}
		// Iteration-start table transfer (paper §3.2): each node pulls the
		// Q rows its users rated and the P rows its items were rated by.
		if err := c.RunPhase(func(node int) error {
			ulo, uhi := userPart.Range(node)
			items := make(map[uint32]bool)
			for u := ulo; u < uhi; u++ {
				for _, v := range r.ByUser.Neighbors(u) {
					if itemPart.Owner(v) != node {
						items[v] = true
					}
				}
			}
			ilo, ihi := itemPart.Range(node)
			users := make(map[uint32]bool)
			for v := ilo; v < ihi; v++ {
				for _, u := range r.ByItem.Neighbors(v) {
					if userPart.Owner(u) != node {
						users[u] = true
					}
				}
			}
			bytes := int64(len(items)+len(users)) * int64(4+8*k)
			e.accountTraffic(c, node, bytes, 2*(c.Nodes()-1))
			return nil
		}); err != nil {
			return err
		}
		// Gradients and applies run node-local after the transfer.
		for _, row := range []func(*cfSide, uint32, []float64){grad, apply} {
			if err := c.RunPhase(func(node int) error {
				ulo, uhi := userPart.Range(node)
				ilo, ihi := itemPart.Range(node)
				rows(pool, ulo, uhi, ilo, ihi, row)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}

	train := func(pool *par.Pool, _ *trace.Tracer) int {
		for it := 0; it < opt.Iterations; it++ {
			if err = evalRules(pool); err != nil {
				break
			}
			p.f, p.next = p.next, p.f
			q.f, q.next = q.next, q.f
			gamma *= opt.StepDecay
			if !opt.SkipRMSETrajectory {
				rmse = append(rmse, rmseOf(r, k, p.f, q.f))
			}
		}
		return opt.Iterations
	}
	stats := opt.Exec.Local(train)
	if c != nil {
		stats = core.SimulatedStats(c, stats.Iterations)
	}
	if err != nil {
		return nil, err
	}
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, rmseOf(r, k, p.f, q.f))
	}
	return &core.CFResult{K: k, UserFactors: narrow(p.f), ItemFactors: narrow(q.f), RMSE: rmse, Stats: stats}, nil
}

// cfSide is one side of the rating matrix: its rows (a user's ratings, or
// an item's), its factor table f as a flat n·K column, the next factors
// the apply rule assigns, the gradients, its λ and the side its rows join.
// f and next swap after every iteration.
type cfSide struct {
	rows          *graph.CSR
	f, next, grad []float64
	lambda        float64
	other         *cfSide
}

func newCFSide(rows *graph.CSR, init []float32, lambda float64) *cfSide {
	f := make([]float64, len(init))
	for i, x := range init {
		f[i] = float64(x)
	}
	return &cfSide{rows: rows, f: f, next: make([]float64, len(f)), grad: make([]float64, len(f)), lambda: lambda}
}

// gradRow folds key's gradient: one emission (rw-dot)·other - λ·self per
// rating rw of its row, in row order, summed from -0 (the one seed x + seed
// returns every x from). An emission with a NaN element is dropped, as the
// rule evaluator drops it, and the rest of the row still folds.
func (s *cfSide) gradRow(key uint32, em []float64) {
	k := len(em)
	self := s.f[int(key)*k : int(key+1)*k]
	g := s.grad[int(key)*k : int(key+1)*k]
	for i := range g {
		g[i] = math.Copysign(0, -1)
	}
	wts := s.rows.EdgeWeights(key)
	for j, o := range s.rows.Neighbors(key) {
		other := s.other.f[int(o)*k : int(o+1)*k]
		rw := float64(wts[j])
		dot := 0.0
		for i := range self {
			dot += self[i] * other[i]
		}
		nan := false
		for i := range em {
			em[i] = (rw-dot)*other[i] - s.lambda*self[i]
			nan = nan || math.IsNaN(em[i])
		}
		if nan {
			continue
		}
		for i := range g {
			g[i] += em[i]
		}
	}
}

// applyRow assigns key's next factor f + γ·grad. A result with a NaN
// element keeps f, as the rule evaluator drops the NaN assignment. A row
// that folded no emission holds the -0 seed, and f + γ·(-0) is f for every
// factor and every finite γ ≥ 0: a key without a gradient keeps its factor.
func (s *cfSide) applyRow(key uint32, k int, gamma float64) {
	f := s.f[int(key)*k : int(key+1)*k]
	gr := s.grad[int(key)*k : int(key+1)*k]
	out := s.next[int(key)*k : int(key+1)*k]
	nan := false
	for i := range out {
		out[i] = f[i] + gamma*gr[i]
		nan = nan || math.IsNaN(out[i])
	}
	if nan {
		copy(out, f)
	}
}

func narrow(f []float64) []float32 {
	out := make([]float32, len(f))
	for i, x := range f {
		out[i] = float32(x)
	}
	return out
}

func rmseOf(r *graph.Bipartite, k int, p, q []float64) float64 {
	return core.RMSE(r, k, narrow(p), narrow(q))
}
