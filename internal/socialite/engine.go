package socialite

import (
	"fmt"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
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
	stats := opt.Exec.Local(func(pool *backend.Pool, tr *trace.Tracer) int {
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
	t.ForEach(func(k uint32, v Value) { out[k] = v.S() })
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
	dist.Put(opt.Source, Scalar(0))

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
	stats := opt.Exec.Local(func(pool *backend.Pool, _ *trace.Tracer) (rounds int) {
		if c == nil {
			// The shared driver lowers the rule's shape onto the backend's
			// persistent-claims expander.
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
	dist.ForEach(func(k uint32, v Value) { out[k] = int32(v.S()) })
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
	stats := opt.Exec.Local(func(pool *backend.Pool, _ *trace.Tracer) int {
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
		count = int64(v.S())
	}
	return &core.TriangleResult{Count: count, Stats: stats}, nil
}

// CollabFilter implements core.Engine: the user and item factor vectors
// live in tables keyed by vertex; gradient rules join the rating table
// with both factor tables and $SUM per key; apply rules assign the new
// factors. Factor tables transfer to target machines at the start of each
// iteration so the joins run locally (paper §3.2). SGD is inexpressible.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Method == core.SGD {
		return nil, core.ErrUnsupported
	}
	k := opt.K
	userInit := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemInit := core.InitFactors(r.NumItems, k, opt.Seed+1)
	p := NewVecTable("P", r.NumUsers)
	q := NewVecTable("Q", r.NumItems)
	for u := uint32(0); u < r.NumUsers; u++ {
		p.Put(u, toValue(userInit[int(u)*k:int(u+1)*k]))
	}
	for v := uint32(0); v < r.NumItems; v++ {
		q.Put(v, toValue(itemInit[int(v)*k:int(v+1)*k]))
	}
	rating := NewEdgeTable("RATING", r.ByUser)
	ratingT := NewEdgeTable("RATINGT", r.ByItem)

	gradExpr := func(lambda float64) func(env *Env) Value {
		return func(env *Env) Value {
			self, other, rw := env.Vals[1], env.Vals[2], env.Vals[0].S()
			dot := 0.0
			for i := range self {
				dot += self[i] * other[i]
			}
			out := make(Value, len(self))
			for i := range out {
				out[i] = (rw-dot)*other[i] - lambda*self[i]
			}
			return out
		}
	}
	makeGradRule := func(name string, drv *EdgeTable, selfT, otherT, gradT *VecTable, lambda float64) *Rule {
		return &Rule{
			Name: name, KeySlots: 2, ValSlots: 4,
			Driver: Driver{Edge: &EdgeAtom{Table: drv, SrcSlot: 0, DstSlot: 1, WeightSlot: 0}},
			Atoms: []Atom{
				{Vec: &VecAtom{Table: selfT, KeySlot: 0, ValSlot: 1}},
				{Vec: &VecAtom{Table: otherT, KeySlot: 1, ValSlot: 2}},
			},
			Lets: []Let{{OutSlot: 3, F: gradExpr(lambda)}},
			Head: Head{Table: gradT, Agg: AggSum, KeySlot: 0, ValSlot: 3},
		}
	}
	makeApplyRule := func(name string, factorT, gradT, outT *VecTable, gamma float64) *Rule {
		return &Rule{
			Name: name, KeySlots: 1, ValSlots: 3,
			Driver: Driver{Vec: &VecAtom{Table: factorT, KeySlot: 0, ValSlot: 0}},
			Atoms:  []Atom{{Vec: &VecAtom{Table: gradT, KeySlot: 0, ValSlot: 1}}},
			Lets: []Let{{OutSlot: 2, F: func(env *Env) Value {
				f, gr := env.Vals[0], env.Vals[1]
				out := make(Value, len(f))
				for i := range out {
					out[i] = f[i] + gamma*gr[i]
				}
				return out
			}}},
			Head: Head{Table: outT, Agg: AggAssign, KeySlot: 0, ValSlot: 2},
		}
	}

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

	// evalRules evaluates one iteration's rules on the call's pool: over
	// the whole key space for a single-node run, shard-local on the
	// cluster's nodes otherwise.
	evalRules := func(pool *backend.Pool, gradPRule, gradQRule, applyP, applyQ *Rule) error {
		for _, rule := range []*Rule{gradPRule, gradQRule, applyP, applyQ} {
			if err := rule.Validate(); err != nil {
				return err
			}
		}
		if c == nil {
			for _, rule := range []*Rule{gradPRule, gradQRule, applyP, applyQ} {
				if err := EvalOnce(pool, rule); err != nil {
					return err
				}
			}
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
		// Gradients and applies run shard-local after the transfer.
		if err := c.RunPhase(func(node int) error {
			ulo, uhi := userPart.Range(node)
			if _, err := evalSharded(pool, gradPRule, ulo, uhi, nil, nil, 0, false); err != nil {
				return err
			}
			ilo, ihi := itemPart.Range(node)
			_, err := evalSharded(pool, gradQRule, ilo, ihi, nil, nil, 0, false)
			return err
		}); err != nil {
			return err
		}
		return c.RunPhase(func(node int) error {
			ulo, uhi := userPart.Range(node)
			if _, err := evalSharded(pool, applyP, ulo, uhi, nil, nil, 0, false); err != nil {
				return err
			}
			ilo, ihi := itemPart.Range(node)
			_, err := evalSharded(pool, applyQ, ilo, ihi, nil, nil, 0, false)
			return err
		})
	}

	iterate := func(pool *backend.Pool) error {
		gradP := NewVecTable("GRADP", r.NumUsers)
		gradQ := NewVecTable("GRADQ", r.NumItems)
		p2 := NewVecTable("P2", r.NumUsers)
		q2 := NewVecTable("Q2", r.NumItems)
		gp := makeGradRule("gradP", rating, p, q, gradP, opt.LambdaP)
		gq := makeGradRule("gradQ", ratingT, q, p, gradQ, opt.LambdaQ)
		ap := makeApplyRule("applyP", p, gradP, p2, gamma)
		aq := makeApplyRule("applyQ", q, gradQ, q2, gamma)
		if err := evalRules(pool, gp, gq, ap, aq); err != nil {
			return err
		}
		// Users or items with no gradient rows keep their factors.
		p.ForEach(func(key uint32, val Value) {
			if _, ok := p2.Get(key); !ok {
				p2.Put(key, val)
			}
		})
		q.ForEach(func(key uint32, val Value) {
			if _, ok := q2.Get(key); !ok {
				q2.Put(key, val)
			}
		})
		p, q = p2, q2
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, rmseOf(r, k, p, q))
		}
		return nil
	}
	train := func(pool *backend.Pool, _ *trace.Tracer) int {
		for it := 0; it < opt.Iterations && err == nil; it++ {
			err = iterate(pool)
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
		rmse = append(rmse, rmseOf(r, k, p, q))
	}

	userOut := make([]float32, int(r.NumUsers)*k)
	itemOut := make([]float32, int(r.NumItems)*k)
	p.ForEach(func(key uint32, val Value) {
		for d := 0; d < k; d++ {
			userOut[int(key)*k+d] = float32(val[d])
		}
	})
	q.ForEach(func(key uint32, val Value) {
		for d := 0; d < k; d++ {
			itemOut[int(key)*k+d] = float32(val[d])
		}
	})
	return &core.CFResult{K: k, UserFactors: userOut, ItemFactors: itemOut, RMSE: rmse, Stats: stats}, nil
}

func toValue(f []float32) Value {
	out := make(Value, len(f))
	for i, x := range f {
		out[i] = float64(x)
	}
	return out
}

func rmseOf(r *graph.Bipartite, k int, p, q *VecTable) float64 {
	userF := make([]float32, int(r.NumUsers)*k)
	itemF := make([]float32, int(r.NumItems)*k)
	p.ForEach(func(key uint32, val Value) {
		for d := 0; d < k; d++ {
			userF[int(key)*k+d] = float32(val[d])
		}
	})
	q.ForEach(func(key uint32, val Value) {
		for d := 0; d < k; d++ {
			itemF[int(key)*k+d] = float32(val[d])
		}
	})
	return core.RMSE(r, k, userF, itemF)
}
