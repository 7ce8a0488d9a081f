package lint

import "testing"

func TestObsFlagsRecordInBodyWithoutWorkerIndex(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

func Sweep(h *obs.Histogram, n int) {
	par.For(n, func(lo, hi int) {
		h.Record(0, int64(hi-lo))
	})
}
`})
	wantFinding(t, runRule(t, p, &ObsRule{}), "internal/native/a.go", 10, "obs")
}

func TestObsFlagsConstantLaneInIndexedBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

func Sweep(h *obs.Histogram, n int) {
	par.ForWorkersIndexed(4, n, func(w, lo, hi int) {
		h.Record(0, int64(hi-lo))
	})
}
`})
	wantFinding(t, runRule(t, p, &ObsRule{}), "internal/native/a.go", 10, "obs")
}

func TestObsFlagsShadowedLaneVariable(t *testing.T) {
	// Passing some other int — here lo — instead of the worker parameter
	// collapses the lanes just as badly as a constant.
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

func Sweep(h *obs.Histogram, n int) {
	par.ForWorkersIndexed(4, n, func(w, lo, hi int) {
		h.Record(lo, int64(hi-lo))
	})
}
`})
	wantFinding(t, runRule(t, p, &ObsRule{}), "internal/native/a.go", 10, "obs")
}

func TestObsAllowsWorkerLane(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

func Sweep(h *obs.Histogram, n int) {
	par.ForWorkersIndexed(4, n, func(w, lo, hi int) {
		h.Record(w, int64(hi-lo))
	})
}
`})
	if got := runRule(t, p, &ObsRule{}); len(got) != 0 {
		t.Fatalf("worker-lane Record flagged: %v", got)
	}
}

func TestObsAllowsRecordOutsideParBody(t *testing.T) {
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import (
	"graphmaze/internal/obs"
	"graphmaze/internal/par"
)

func Sweep(h *obs.Histogram, n int) {
	par.For(n, func(lo, hi int) {
		_ = hi - lo
	})
	h.Record(0, int64(n))
}
`})
	if got := runRule(t, p, &ObsRule{}); len(got) != 0 {
		t.Fatalf("serial Record flagged: %v", got)
	}
}

func TestObsIgnoresUnrelatedRecordMethods(t *testing.T) {
	// A Record method on some other type inside a par body is not lane
	// misuse — the rule keys on obs.Histogram's receiver specifically.
	p := loadFixtureWithPar(t, "internal/native", map[string]string{"a.go": `package native

import "graphmaze/internal/par"

type logger struct{}

func (l *logger) Record(k int, v int64) {}

func Sweep(l *logger, n int) {
	par.For(n, func(lo, hi int) {
		l.Record(0, int64(hi-lo))
	})
}
`})
	if got := runRule(t, p, &ObsRule{}); len(got) != 0 {
		t.Fatalf("unrelated Record method flagged: %v", got)
	}
}
