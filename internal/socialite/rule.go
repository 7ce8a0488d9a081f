package socialite

import (
	"errors"
	"fmt"
	"math"
)

// The rule representation below is the "compiled" form SociaLite produces
// from Datalog source: variables are resolved to key/value slots, body
// atoms become indexed joins evaluated left to right, and the head fold is
// one of the aggregation functions. A rule like the paper's distributed
// PageRank (§3.1)
//
//	RANK2[n]($SUM(v)) :- RANK[s](v0), OUTEDGE[s](n), OUTDEG[s](d),
//	                     v = (1-r)*v0/d.
//
// compiles to: driver = RANK (binds s,v0), edge atom OUTEDGE joining on s
// (binds n), vec atom OUTDEG joining on s (binds d), a Let computing v,
// and head $SUM into RANK2 keyed by n.

// Env is a rule's slot frame during evaluation: key slots hold vertex ids,
// value slots hold scalars. Frames are made up front, so rule evaluation
// allocates nothing per tuple (SociaLite compiles rules to tight Java
// loops; we match that with this fast path).
type Env struct {
	Keys []uint32
	Vals []float64
}

// EdgeAtom joins a tail-nested edge table. Src must already be bound. If
// DstBound, the atom is a containment check on an already-bound Dst;
// otherwise it enumerates and binds Dst. WeightSlot ≥ 0 binds the weight
// column.
type EdgeAtom struct {
	Table      *EdgeTable
	SrcSlot    int
	DstSlot    int
	DstBound   bool
	WeightSlot int
}

// VecAtom joins a keyed table on an already-bound key, binding the value.
type VecAtom struct {
	Table   *VecTable
	KeySlot int
	ValSlot int
}

// Atom is one body literal after the driver: exactly one of Edge, Vec or
// Let. Interleaved Let atoms let the planner hoist loop-invariant
// expressions above edge enumeration, as SociaLite's rule compiler does
// (e.g. PageRank's (1-r)·v0/d depends only on the source bindings and is
// computed once per source, not once per edge).
type Atom struct {
	Edge *EdgeAtom
	Vec  *VecAtom
	Let  *Let
}

// Let computes a derived value from the current frame.
type Let struct {
	OutSlot int
	F       func(env *Env) float64
}

// Head aggregates the emitted tuple; an emission that is NaN is dropped.
// ValSlot < 0 emits the constant 1
// ($INC(1)); KeySlot < 0 folds into the constant key 0 (global
// aggregates like TRIANGLE(0, $INC(1))).
type Head struct {
	Table   *VecTable
	Agg     Agg
	KeySlot int
	ValSlot int
}

// Driver enumerates the rule's first body atom. Exactly one of Vec or
// Edge is set.
type Driver struct {
	// Vec drives from a keyed table: binds KeySlot and ValSlot per present
	// key (or per delta key during semi-naive evaluation).
	Vec *VecAtom
	// Edge drives from an edge table: binds SrcSlot, DstSlot and
	// optionally WeightSlot for every tuple.
	Edge *EdgeAtom
}

// Rule is one compiled Datalog rule.
type Rule struct {
	Name     string
	KeySlots int
	ValSlots int
	Driver   Driver
	Atoms    []Atom
	Head     Head
}

// Validate performs the checks SociaLite's compiler would: slots in
// range, join keys bound before use.
func (r *Rule) Validate() error {
	if r.Head.Table == nil {
		return errors.New("socialite: rule has no head table")
	}
	bound := make([]bool, r.KeySlots)
	boundVal := make([]bool, r.ValSlots)
	checkKey := func(slot int, mustBeBound bool, what string) error {
		if slot < 0 || slot >= r.KeySlots {
			return fmt.Errorf("socialite: rule %s: %s key slot %d out of range", r.Name, what, slot)
		}
		if mustBeBound && !bound[slot] {
			return fmt.Errorf("socialite: rule %s: %s uses unbound key slot %d", r.Name, what, slot)
		}
		return nil
	}
	switch {
	case r.Driver.Vec != nil:
		d := r.Driver.Vec
		if err := checkKey(d.KeySlot, false, "driver"); err != nil {
			return err
		}
		bound[d.KeySlot] = true
		if d.ValSlot >= 0 {
			boundVal[d.ValSlot] = true
		}
	case r.Driver.Edge != nil:
		d := r.Driver.Edge
		if err := checkKey(d.SrcSlot, false, "driver"); err != nil {
			return err
		}
		if err := checkKey(d.DstSlot, false, "driver"); err != nil {
			return err
		}
		bound[d.SrcSlot], bound[d.DstSlot] = true, true
		if d.WeightSlot >= 0 {
			boundVal[d.WeightSlot] = true
		}
	default:
		return errors.New("socialite: rule has no driver atom")
	}
	for i, a := range r.Atoms {
		switch {
		case a.Edge != nil:
			if err := checkKey(a.Edge.SrcSlot, true, fmt.Sprintf("atom %d", i)); err != nil {
				return err
			}
			if a.Edge.DstBound {
				if err := checkKey(a.Edge.DstSlot, true, fmt.Sprintf("atom %d (check)", i)); err != nil {
					return err
				}
			} else {
				if err := checkKey(a.Edge.DstSlot, false, fmt.Sprintf("atom %d", i)); err != nil {
					return err
				}
				bound[a.Edge.DstSlot] = true
			}
			if a.Edge.WeightSlot >= 0 {
				boundVal[a.Edge.WeightSlot] = true
			}
		case a.Vec != nil:
			if err := checkKey(a.Vec.KeySlot, true, fmt.Sprintf("atom %d", i)); err != nil {
				return err
			}
			if a.Vec.ValSlot >= 0 {
				boundVal[a.Vec.ValSlot] = true
			}
		case a.Let != nil:
			if a.Let.OutSlot < 0 || a.Let.OutSlot >= r.ValSlots {
				return fmt.Errorf("socialite: rule %s: atom %d let out slot out of range", r.Name, i)
			}
			if a.Let.F == nil {
				return fmt.Errorf("socialite: rule %s: atom %d let has no expression", r.Name, i)
			}
			boundVal[a.Let.OutSlot] = true
		default:
			return fmt.Errorf("socialite: rule %s: atom %d is empty", r.Name, i)
		}
	}
	if r.Head.KeySlot >= 0 {
		if err := checkKey(r.Head.KeySlot, true, "head"); err != nil {
			return err
		}
	}
	if r.Head.ValSlot >= 0 && !boundVal[r.Head.ValSlot] {
		return fmt.Errorf("socialite: rule %s: head value slot %d never bound", r.Name, r.Head.ValSlot)
	}
	return nil
}

// emit is the head sink: fold into the head table (possibly remotely — the
// engine supplies the routing).
type emit func(key uint32, val float64)

// evalFrom continues evaluation from atom index ai with the frame env.
func (r *Rule) evalFrom(ai int, env *Env, sink emit) {
	if ai == len(r.Atoms) {
		val := 1.0
		if r.Head.ValSlot >= 0 {
			val = env.Vals[r.Head.ValSlot]
		}
		if math.IsNaN(val) {
			return
		}
		key := uint32(0)
		if r.Head.KeySlot >= 0 {
			key = env.Keys[r.Head.KeySlot]
		}
		sink(key, val)
		return
	}
	a := r.Atoms[ai]
	if a.Let != nil {
		env.Vals[a.Let.OutSlot] = a.Let.F(env)
		r.evalFrom(ai+1, env, sink)
		return
	}
	if a.Vec != nil {
		v, ok := a.Vec.Table.Get(env.Keys[a.Vec.KeySlot])
		if !ok {
			return
		}
		if a.Vec.ValSlot >= 0 {
			env.Vals[a.Vec.ValSlot] = v
		}
		r.evalFrom(ai+1, env, sink)
		return
	}
	e := a.Edge
	src := env.Keys[e.SrcSlot]
	if e.DstBound {
		if e.Table.Contains(src, env.Keys[e.DstSlot]) {
			r.evalFrom(ai+1, env, sink)
		}
		return
	}
	adj := e.Table.Neighbors(src)
	wts := e.Table.Weights(src)
	for i, dst := range adj {
		env.Keys[e.DstSlot] = dst
		if e.WeightSlot >= 0 && wts != nil {
			env.Vals[e.WeightSlot] = float64(wts[i])
		}
		r.evalFrom(ai+1, env, sink)
	}
}

// newEnv returns an empty slot frame sized for the rule.
func (r *Rule) newEnv() *Env {
	return &Env{Keys: make([]uint32, r.KeySlots), Vals: make([]float64, r.ValSlots)}
}

// driverSpan reports the size of the key space the rule's driver
// enumerates.
func (r *Rule) driverSpan() (uint32, error) {
	switch {
	case r.Driver.Vec != nil:
		return r.Driver.Vec.Table.NumKeys(), nil
	case r.Driver.Edge != nil:
		return r.Driver.Edge.Table.NumKeys(), nil
	default:
		return 0, fmt.Errorf("socialite: rule %s has no driver atom", r.Name)
	}
}

// evalDriver evaluates the rule in the caller's frame for the driver keys
// (vec driver, restricted to delta when non-nil) or edge sources (edge
// driver) in [lo,hi). The caller has checked that the rule has a driver.
func (r *Rule) evalDriver(env *Env, lo, hi uint32, delta []uint32, sink emit) {
	if d := r.Driver.Edge; d != nil {
		for src := lo; src < hi; src++ {
			adj := d.Table.Neighbors(src)
			wts := d.Table.Weights(src)
			env.Keys[d.SrcSlot] = src
			for i, dst := range adj {
				env.Keys[d.DstSlot] = dst
				if d.WeightSlot >= 0 && wts != nil {
					env.Vals[d.WeightSlot] = float64(wts[i])
				}
				r.evalFrom(0, env, sink)
			}
		}
		return
	}
	d := r.Driver.Vec
	visit := func(key uint32) {
		val, ok := d.Table.Get(key)
		if !ok {
			return
		}
		env.Keys[d.KeySlot] = key
		if d.ValSlot >= 0 {
			env.Vals[d.ValSlot] = val
		}
		r.evalFrom(0, env, sink)
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
