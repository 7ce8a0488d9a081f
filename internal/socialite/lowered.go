package socialite

import (
	"fmt"
	"math"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/par"
)

// This file holds the one rule-shape matcher and the evaluators it hands a
// rule to, each on a pool the caller borrowed (DESIGN.md §12). The shape is
//
//	HEAD[t]($AGG(v)) :- DRIVER[s](v0), <key-local prefix>, EDGE[s](t).
//
// a keyed driver, vec atoms and assignments that only look at the
// driver's key, and one trailing unweighted edge atom whose destination
// keys the head. Every (s, t) tuple of a source then emits the same
// value, so the head column is a sparse matrix-vector product over EDGE:
//
//   - recursive $MIN (HEAD is DRIVER, the BFS workhorse) is one level
//     step of the backend's Traversal per round, written into the head's
//     dense column;
//   - non-recursive $SUM (PageRank's rule) is one plus-times SpMV over
//     EDGE's transposed view, each row's fold seeded with the stored value;
//   - a constant-key $INC(1) (TRIANGLE) has no such shape to match — any
//     body counts — and adds up per-worker tallies instead.
//
// Each evaluator checks at run time what the shape cannot promise and
// hands the rule back to the generic sharded evaluator, untouched, when a
// check fails: a lowering is never a semantic fork.

// edgeShape is a rule the matcher recognised. It holds the rule's own
// atoms, so tables rebound between evaluations are seen.
type edgeShape struct {
	rule   *Rule
	driver *VecAtom
	prefix []Atom
	edge   *EdgeAtom
}

// matchEdgeShape classifies a rule by its atoms alone.
func matchEdgeShape(rule *Rule) (*edgeShape, bool) {
	d := rule.Driver.Vec
	na := len(rule.Atoms)
	if d == nil || na == 0 || rule.Head.ValSlot < 0 {
		return nil, false
	}
	last := rule.Atoms[na-1].Edge
	if last == nil || last.DstBound || last.WeightSlot >= 0 ||
		last.SrcSlot != d.KeySlot || rule.Head.KeySlot != last.DstSlot {
		return nil, false
	}
	prefix := rule.Atoms[:na-1]
	for _, a := range prefix {
		if a.Let == nil && (a.Vec == nil || a.Vec.KeySlot != d.KeySlot) {
			return nil, false
		}
	}
	return &edgeShape{rule: rule, driver: d, prefix: prefix, edge: last}, true
}

// sourceValue evaluates the driver and the prefix for one source in env
// and returns the value the head emits along each of the source's edges;
// false when the driver or a prefix table holds no tuple for it.
func (s *edgeShape) sourceValue(env *Env, src uint32) (float64, bool) {
	v0, ok := s.driver.Table.Get(src)
	if !ok {
		return 0, false
	}
	env.Keys[s.driver.KeySlot] = src
	if s.driver.ValSlot >= 0 {
		env.Vals[s.driver.ValSlot] = v0
	}
	for _, a := range s.prefix {
		if a.Vec != nil {
			v, ok := a.Vec.Table.Get(src)
			if !ok {
				return 0, false
			}
			if a.Vec.ValSlot >= 0 {
				env.Vals[a.Vec.ValSlot] = v
			}
			continue
		}
		env.Vals[a.Let.OutSlot] = a.Let.F(env)
	}
	return env.Vals[s.rule.Head.ValSlot], true
}

// squareOver reports whether every table of the shape is keyed by the
// edge table's vertex space, which the dense lowerings index by.
func (s *edgeShape) squareOver() bool {
	g := s.edge.Table.g
	n := g.NumVertices
	if g.TargetSpace() != n || s.rule.Head.Table.NumKeys() != n || s.driver.Table.NumKeys() != n {
		return false
	}
	for _, a := range s.prefix {
		if a.Vec != nil && a.Vec.Table.NumKeys() != n {
			return false
		}
	}
	return true
}

// RuleLowering is a backend-lowered evaluator for one recursive $MIN
// rule. When every delta source emits the same head value L and L is
// strictly greater than every value already stored, the $MIN fold can
// only claim keys that are absent from the table — which is exactly one
// BFS level: the backend Traversal's Step from the delta, with the stored
// keys claimed. The level pulls through the edge table's in-edge view
// when it has one (WithInEdges) and pushes otherwise, and its claims go
// straight into the head's dense column at L. The lowering checks the two
// conditions every round at O(|delta|) cost and falls back to the generic
// evaluator (permanently, via the dead flag) the moment either fails, so
// rules that merely look like BFS still evaluate correctly. Obtain one
// with LowerBFSRule and drive it with Round (Fixpoint does both).
type RuleLowering struct {
	shape *edgeShape
	head  *VecTable
	step  *backend.Traversal
	env   *Env
	// frontier holds the delta keys that passed the per-round checks;
	// outA/outB alternate as Step targets so a round never writes into
	// the slice the caller is still iterating as its delta.
	frontier []uint32
	outA     []uint32
	outB     []uint32
	flip     bool
	// maxVal is the largest value stored in the head table so far — the
	// monotonic-frontier guard.
	maxVal float64
	dead   bool
}

// LowerBFSRule builds the frontier lowering for a rule of the matched
// shape that is recursive (the head table drives the body) and folds with
// $MIN, on the caller's pool.
func LowerBFSRule(pool *par.Pool, rule *Rule) (*RuleLowering, bool) {
	sh, ok := matchEdgeShape(rule)
	if !ok || rule.Head.Agg != AggMin || !rule.Recursive() || !sh.squareOver() {
		return nil, false
	}
	head := rule.Head.Table
	edge := sh.edge.Table
	step := backend.NewDirectedTraversal(pool, backend.FromCSR(edge.g), edge.in, "", nil)
	// Seed the claimed set from the stored tuples.
	maxVal := math.Inf(-1)
	head.ForEach(func(k uint32, v float64) {
		step.Claim(k)
		if v > maxVal {
			maxVal = v
		}
	})
	return &RuleLowering{shape: sh, head: head, step: step, env: rule.newEnv(), maxVal: maxVal}, true
}

// Round evaluates one semi-naive round over delta. On success it returns
// the next delta (the newly stored keys) and true. It returns false —
// without touching the table, so the caller can re-run the same delta on
// the generic evaluator — when the round violates the lowering's
// preconditions; the lowering is then dead for the rest of the run.
func (l *RuleLowering) Round(delta []uint32) ([]uint32, bool) {
	if l.dead {
		return nil, false
	}
	frontier := l.frontier[:0]
	level := 0.0
	first := true
	for _, src := range delta {
		val, ok := l.shape.sourceValue(l.env, src)
		if !ok {
			continue
		}
		if math.IsNaN(val) || (!first && val != level) {
			l.dead = true
			return nil, false
		}
		if first {
			level, first = val, false
		}
		frontier = append(frontier, src)
	}
	l.frontier = frontier
	if first {
		// No productive delta source: the fixpoint is reached.
		return nil, true
	}
	if level <= l.maxVal {
		// A non-increasing level could improve stored tuples, which a
		// claims-based expansion cannot express.
		l.dead = true
		return nil, false
	}
	out := &l.outA
	if l.flip {
		out = &l.outB
	}
	l.flip = !l.flip
	next := l.step.Step(frontier, (*out)[:0])
	*out = next
	l.head.putScalars(next, level)
	l.maxVal = level
	return next, true
}

// Recursive reports whether the head table also drives the body — the
// shape Fixpoint evaluates semi-naively.
func (r *Rule) Recursive() bool {
	return r.Driver.Vec != nil && r.Driver.Vec.Table == r.Head.Table
}

// readsHead reports whether a body atom reads the head table. Such a
// rule's result depends on when each fold lands, so only the evaluator
// that defines that order may run it.
func (r *Rule) readsHead() bool {
	if r.Recursive() {
		return true
	}
	for _, a := range r.Atoms {
		if a.Vec != nil && a.Vec.Table == r.Head.Table {
			return true
		}
	}
	return false
}

// seminaive is the one semi-naive driver loop: it hands each round the
// keys the last one changed, starting from delta, until a round changes
// nothing, and returns the number of rounds. A rule still changing after
// NumKeys()+1 rounds of its head table stops with an error: $MIN with a
// positive step settles within NumKeys() rounds, so a rule past the bound
// is one whose values never settle (a sum or a decreasing minimum around
// a cycle).
func seminaive(rule *Rule, delta []uint32, round func(delta []uint32) ([]uint32, error)) (int, error) {
	bound := int(rule.Head.Table.NumKeys()) + 1
	rounds := 0
	for len(delta) > 0 {
		if rounds == bound {
			return rounds, fmt.Errorf("socialite: rule %s still changing %d keys after round %d (bound: %d keys + 1)",
				rule.Name, len(delta), rounds, bound-1)
		}
		rounds++
		var err error
		if delta, err = round(delta); err != nil {
			return rounds, err
		}
	}
	return rounds, nil
}

// Fixpoint evaluates a recursive rule until no stored value changes,
// starting from every tuple the driver table holds, and returns the number
// of rounds. Rounds run on the caller's pool: through the BFS lowering
// while its guards hold; a round that violates them re-runs on the generic
// sharded evaluator, as does every later round.
func Fixpoint(pool *par.Pool, rule *Rule) (int, error) {
	if !rule.Recursive() {
		return 0, fmt.Errorf("socialite: Fixpoint needs a recursive rule (head table driving the body); evaluate rule %s once instead", rule.Name)
	}
	driver := rule.Driver.Vec.Table
	var delta []uint32
	driver.ForEach(func(k uint32, _ float64) { delta = append(delta, k) })
	low, _ := LowerBFSRule(pool, rule)
	return seminaive(rule, delta, func(delta []uint32) ([]uint32, error) {
		if low != nil {
			if next, ok := low.Round(delta); ok {
				return next, nil
			}
		}
		stats, err := evalSharded(pool, rule, 0, driver.NumKeys(), delta, nil, 0, true)
		return stats.Changed, err
	})
}

// EvalOnce evaluates a rule once over its whole driver key space on the
// caller's pool: lowered when the matcher and the lowering's guard allow,
// on the generic sharded evaluator otherwise.
func EvalOnce(pool *par.Pool, rule *Rule) error {
	span, err := rule.driverSpan()
	if err != nil {
		return err
	}
	if rule.Head.Agg == AggCount && rule.Head.ValSlot < 0 && rule.Head.KeySlot < 0 && !rule.readsHead() {
		evalGlobalCount(pool, rule, span)
		return nil
	}
	if sh, ok := matchEdgeShape(rule); ok && evalEdgeSum(pool, sh) {
		return nil
	}
	_, err = evalSharded(pool, rule, 0, span, nil, nil, 0, false)
	return err
}

// evalEdgeSum evaluates a non-recursive $SUM rule of the matched
// shape as y ← y + Aᵀ·x: x[s] is the value source s emits (one pass
// through the rule's own prefix), Aᵀ is the edge table keyed by
// destination, and y is the head column, each row's fold starting from the
// value the table already holds. The sharded evaluator folds a key's
// updates onto its stored value in ascending source order, which is a row
// of Aᵀ left to right, so the column is that evaluator's bit for bit at
// every worker count. It reports false, with the head untouched, when it
// cannot promise that: a source with no tuple in the driver or a prefix
// table (its edges would emit nothing, not zero) or a NaN emission
// (dropped, not folded).
func evalEdgeSum(pool *par.Pool, s *edgeShape) bool {
	rule := s.rule
	head := rule.Head.Table
	if rule.Head.Agg != AggSum || rule.readsHead() || !s.squareOver() {
		return false
	}
	edge := s.edge.Table
	x := make([]float64, edge.NumKeys())
	var refused atomic.Bool
	backend.NewDense(pool, len(x), func(lo, hi int) {
		env := rule.newEnv()
		for src := lo; src < hi; src++ {
			val, ok := s.sourceValue(env, uint32(src))
			if ok && !math.IsNaN(val) {
				x[src] = val
				continue
			}
			// A source without edges emits nothing whatever its value is.
			if len(edge.Neighbors(uint32(src))) > 0 {
				refused.Store(true)
				return
			}
		}
	}).Run()
	if refused.Load() {
		return false
	}
	// A key with no stored value takes its first update as it comes; -0
	// is the one seed x + seed returns every x from, +0 and -0 included.
	y := head.scalarColumn(math.Copysign(0, -1))
	in := edge.transposed()
	backend.NewSumVecMul(pool, in).AddInto(y, x)
	if head.Len() < len(y) {
		head.adoptColumn(func(k int) bool { return in.Offsets[k+1] > in.Offsets[k] })
	}
	return true
}

// countLane is one pool worker's frame for evalGlobalCount, padded so
// neighbouring workers' tallies do not share a cache line.
type countLane struct {
	env  *Env
	sink emit
	n    float64
	_    [40]byte
}

// evalGlobalCount evaluates a constant-key $INC(1) rule: 64-key chunks of
// the driver range are claimed dynamically on the pool (per-key work is
// as skewed as the degrees), each worker counts the tuples of the chunks
// it claimed, and the tallies are added up. Counts are integers, so the
// sum is exact — the tuple-at-a-time fold's, whoever claimed what.
func evalGlobalCount(pool *par.Pool, rule *Rule, span uint32) {
	lanes := make([]countLane, pool.Workers())
	backend.NewSweep(pool, int(span), 64, func(w, lo, hi int) {
		l := &lanes[w]
		if l.env == nil {
			// Allocated by the worker that writes it, on every edge: frames
			// made side by side on the caller would share cache lines.
			l.env = rule.newEnv()
			l.sink = func(uint32, float64) { l.n++ }
		}
		rule.evalDriver(l.env, uint32(lo), uint32(hi), nil, l.sink)
	}).Run()
	total := 0.0
	for i := range lanes {
		total += lanes[i].n
	}
	if total != 0 {
		rule.Head.Table.fold(AggCount, 0, total)
	}
}
