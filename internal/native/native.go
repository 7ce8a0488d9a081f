// Package native implements the paper's hand-optimized baseline (§6.1):
// tight CSR loops, bit-vector data structures, message compression, and
// compute/communication overlap. It is the reference point every framework
// engine is compared against.
//
// The optimizations the paper times one by one are switchable through
// Tuning, on the paths those timings run: the 16-node PageRank and BFS of
// the Figure 7 ablation and the one-node triangle count of §6.1.2. Every
// other path always runs optimized. One substitution applies: Go has no
// software-prefetch intrinsics, so the paper's prefetch stage is stood in
// for by the contribution-caching / layout optimization (see DESIGN.md §3).
package native

import "graphmaze/internal/core"

// Tuning switches the native code's optimization stages (paper Figure 7
// and §6.1.1–6.1.2). Each field names the stage that reads it; no other
// path reads any.
type Tuning struct {
	// ContribCaching enables the gather-friendly data layout for the
	// cluster PageRank (a dense per-iteration contribution array instead
	// of two dependent random loads and a divide per edge): Figure 7's
	// "+layout" stage, the stand-in for the paper's software-prefetch one.
	ContribCaching bool
	// Compression enables delta+varint / bitvector coding of the cluster
	// PageRank's and BFS's messages: Figure 7's "+compression" stage.
	Compression bool
	// Overlap enables compute/communication overlap on the cluster
	// PageRank and BFS: Figure 7's "+overlap" stage.
	Overlap bool
	// Bitvector enables the bit-vector visited set of the cluster BFS
	// (Figure 7's "+bit-vector visited" stage; off, the distance array is
	// the visited set) and the bit-vector row intersection of the
	// one-node triangle count (§6.1.2's ablation; off, rows merge).
	Bitvector bool
}

// DefaultTuning returns all optimizations enabled — the configuration the
// paper reports as "native".
func DefaultTuning() Tuning {
	return Tuning{ContribCaching: true, Compression: true, Overlap: true, Bitvector: true}
}

// Engine is the hand-optimized native implementation.
type Engine struct {
	tuning Tuning
}

var _ core.Engine = (*Engine)(nil)

// New returns the fully optimized native engine.
func New() *Engine { return &Engine{tuning: DefaultTuning()} }

// NewTuned returns a native engine with selected optimizations, for
// ablation studies.
func NewTuned(t Tuning) *Engine { return &Engine{tuning: t} }

// Name implements core.Engine.
func (e *Engine) Name() string { return "Native" }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: true, ProgrammingModel: "native"}
}
