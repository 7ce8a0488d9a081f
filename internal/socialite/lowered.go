package socialite

import (
	"fmt"
	"math"

	"graphmaze/internal/backend"
)

// This file lowers the BFS-shaped recursive rule onto the shared SpMV
// backend (DESIGN.md §12). The shape is the semi-naive workhorse
//
//	HEAD(t, $MIN(d)) :- HEAD(s, d0), <key-local prefix>, EDGE(s, t).
//
// i.e. the head table IS the driver table and the fold is $MIN. When
// every delta source emits the same head value L and L is strictly
// greater than every value already stored, the $MIN fold can only claim
// keys that are absent from the table — which is exactly the backend
// Expander's persistent-claims expansion. The lowering checks those two
// conditions every round at O(|delta|) cost and falls back to the
// generic evaluator (permanently, via the dead flag) the moment either
// fails, so rules that merely look like BFS still evaluate correctly.

// RuleLowering is a backend-lowered evaluator for one recursive rule.
// Obtain one with LowerBFSRule and drive it with Round (Fixpoint does
// both).
type RuleLowering struct {
	rule   *Rule
	prefix []Atom
	head   *VecTable
	exp    *backend.Expander
	env    *Env
	// frontier holds the delta keys that passed the per-round checks;
	// outA/outB alternate as Expand targets so a round never writes into
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

// LowerBFSRule recognizes the BFS shape — vec driver whose table is also
// the head table, key-local vec/scalar-let prefix, one trailing
// unweighted edge atom keyed by the driver, scalar $MIN head keyed by the
// edge destination — and builds a lowering for it on the caller's pool.
// It mirrors compileScalarRule's checks, plus recursion (head == driver
// table) and the $MIN aggregate.
func LowerBFSRule(pool *backend.Pool, rule *Rule) (*RuleLowering, bool) {
	d := rule.Driver.Vec
	if d == nil || len(rule.Lets) != 0 || rule.Head.ValSlot < 0 {
		return nil, false
	}
	if rule.Head.Agg != AggMin || rule.Head.Table != d.Table {
		return nil, false
	}
	na := len(rule.Atoms)
	if na == 0 {
		return nil, false
	}
	last := rule.Atoms[na-1].Edge
	if last == nil || last.DstBound || last.WeightSlot >= 0 ||
		last.SrcSlot != d.KeySlot || rule.Head.KeySlot != last.DstSlot {
		return nil, false
	}
	prefix := rule.Atoms[:na-1]
	for _, a := range prefix {
		switch {
		case a.Vec != nil:
			if a.Vec.KeySlot != d.KeySlot {
				return nil, false
			}
		case a.Let != nil:
			if a.Let.FScalar == nil {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	head := rule.Head.Table
	if head.NumKeys() != last.Table.NumKeys() {
		return nil, false
	}
	// Seed the claimed set from the stored tuples; $MIN over vectors is
	// not a shape we lower.
	scalar := true
	maxVal := math.Inf(-1)
	head.ForEach(func(k uint32, v Value) {
		if len(v) != 1 {
			scalar = false
		} else if v[0] > maxVal {
			maxVal = v[0]
		}
	})
	if !scalar {
		return nil, false
	}
	exp := backend.NewExpander(pool, backend.FromCSR(last.Table.g))
	head.ForEach(func(k uint32, _ Value) { exp.Claim(k) })
	return &RuleLowering{
		rule:   rule,
		prefix: prefix,
		head:   head,
		exp:    exp,
		env:    &Env{Keys: make([]uint32, rule.KeySlots), Vals: make([]Value, rule.ValSlots)},
		maxVal: maxVal,
	}, true
}

// headVal evaluates the rule's loop-invariant prefix for one delta source
// and returns the value the head would emit for every (src, dst) pair.
func (l *RuleLowering) headVal(src uint32) (float64, bool) {
	d := l.rule.Driver.Vec
	v0, ok := d.Table.Get(src)
	if !ok {
		return 0, false
	}
	env := l.env
	env.Keys[d.KeySlot] = src
	if d.ValSlot >= 0 {
		env.Vals[d.ValSlot] = v0
	}
	for _, a := range l.prefix {
		if a.Vec != nil {
			v, vok := a.Vec.Table.Get(src)
			if !vok {
				return 0, false
			}
			if a.Vec.ValSlot >= 0 {
				env.Vals[a.Vec.ValSlot] = v
			}
			continue
		}
		env.setScalar(a.Let.OutSlot, a.Let.FScalar(env))
	}
	return env.Vals[l.rule.Head.ValSlot][0], true
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
		v, ok := l.headVal(src)
		if !ok {
			continue
		}
		if math.IsNaN(v) || (!first && v != level) {
			l.dead = true
			return nil, false
		}
		if first {
			level, first = v, false
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
	next := l.exp.Expand(frontier, (*out)[:0])
	*out = next
	for _, dst := range next {
		l.head.Put(dst, Scalar(level))
	}
	l.maxVal = level
	return next, true
}

// Recursive reports whether the head table also drives the body — the
// shape Fixpoint evaluates semi-naively.
func (r *Rule) Recursive() bool {
	return r.Driver.Vec != nil && r.Driver.Vec.Table == r.Head.Table
}

// Fixpoint is the one semi-naive driver: it evaluates a recursive rule
// until no stored value changes, starting from every tuple the driver
// table holds, and returns the number of rounds. Rounds run on the
// caller's pool through the BFS lowering while its guards hold; a round
// that violates them re-runs on the generic sharded evaluator, as does
// every later round.
func Fixpoint(pool *backend.Pool, rule *Rule) (int, error) {
	if !rule.Recursive() {
		return 0, fmt.Errorf("socialite: Fixpoint needs a recursive rule (head table driving the body); evaluate rule %s once instead", rule.Name)
	}
	driver := rule.Driver.Vec.Table
	var delta []uint32
	driver.ForEach(func(k uint32, _ Value) { delta = append(delta, k) })
	low, _ := LowerBFSRule(pool, rule)
	rounds := 0
	for len(delta) > 0 {
		rounds++
		if low != nil {
			if next, ok := low.Round(delta); ok {
				delta = next
				continue
			}
		}
		stats, err := EvalParallel(rule, 0, driver.NumKeys(), delta, nil, 0, true)
		if err != nil {
			return rounds, err
		}
		delta = stats.Changed
	}
	return rounds, nil
}

// EvalOnce evaluates a non-recursive rule once over its whole driver key
// space on the generic sharded evaluator.
func EvalOnce(rule *Rule) error {
	var span uint32
	switch {
	case rule.Driver.Vec != nil:
		span = rule.Driver.Vec.Table.NumKeys()
	case rule.Driver.Edge != nil:
		span = rule.Driver.Edge.Table.NumKeys()
	default:
		return fmt.Errorf("socialite: rule has no driver")
	}
	_, err := EvalParallel(rule, 0, span, nil, nil, 0, false)
	return err
}
