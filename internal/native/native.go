// Package native implements the paper's hand-optimized baseline (§6.1):
// tight CSR loops, bit-vector data structures, message compression, and
// compute/communication overlap. It is the reference point every framework
// engine is compared against.
//
// The optimizations are individually switchable through Tuning so the
// Figure 7 ablation can be reproduced. One substitution applies: Go has no
// software-prefetch intrinsics, so the paper's prefetch stage is stood in
// for by the contribution-caching / layout optimization (see DESIGN.md §3).
package native

import "graphmaze/internal/core"

// Tuning switches the native code's optimization stages (paper Figure 7
// and §6.1.1).
type Tuning struct {
	// ContribCaching enables the gather-friendly data layout for PageRank
	// (a dense per-iteration contribution array instead of two dependent
	// random loads per edge). This is the stand-in for the paper's
	// software-prefetch stage.
	ContribCaching bool
	// Compression enables delta+varint / bitvector coding of inter-node
	// messages.
	Compression bool
	// Overlap enables compute/communication overlap on cluster runs.
	Overlap bool
	// Bitvector enables bit-vector visited sets in BFS and bit-vector
	// intersection for high-degree vertices in triangle counting.
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

// Tuning reports the engine's optimization configuration.
func (e *Engine) Tuning() Tuning { return e.tuning }

// Capabilities implements core.Engine.
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{MultiNode: true, SGD: true, ProgrammingModel: "native"}
}
