// Package trace records spans on two clocks and exports them: the
// substrate behind the paper's §5.4/§6 analysis, where every "ninja gap"
// is attributed from per-phase measurement rather than run-level totals
// (DESIGN.md §9). It owns no instrument: a tracer's counters and
// histograms live in its obs.Registry, resolved through Registry().
//
// Spans are named intervals with compute/network/wait attribution,
// recorded on one of several tracks: real-time spans for in-process kernel
// work (Begin/End), and virtual-time spans for the cluster simulation's
// modeled clock (RecordVirtual), one track per simulated node plus an
// engine-level phase track. WriteChromeTrace exports them for Perfetto;
// Summarize digests them with one snapshot of the registry, in the JSON
// shape /metrics.json serves (obs.JSONSnapshot).
//
// A nil *Tracer is the disabled mode: every method is nil-safe, costs one
// pointer check, and allocates nothing (verified by
// TestDisabledTracerAllocatesNothing and BenchmarkSpanDisabled). Code
// therefore threads a possibly-nil tracer unconditionally instead of
// branching at each instrumentation site.
package trace

import (
	"sync"
	"time"

	"graphmaze/internal/obs"
)

// Track identities. Chrome trace events group by process id: real-time
// host work, the engine's virtual-time phase overview, and one virtual
// track per simulated cluster node.
const (
	// PidHost is the real-time track for in-process kernel spans.
	PidHost = 0
	// PidEngine is the virtual-time track for engine-level phases
	// (supersteps, sweeps, rounds, rule evaluations).
	PidEngine = 1
	// PidNodeBase is the first simulated-node track; node n records on
	// PidNodeBase+n.
	PidNodeBase = 100
)

// PidNode returns the virtual-time track of simulated node n.
func PidNode(n int) int { return PidNodeBase + n }

// Event is one completed span on a track. Start and Dur are nanoseconds on
// the track's clock: time since the tracer was created for real-time
// tracks, modeled time since the run began for virtual tracks.
type Event struct {
	Name    string
	Cat     string
	Pid     int
	StartNS int64
	DurNS   int64
	Args    map[string]float64
}

// Tracer records spans. It is safe for concurrent use; the nil Tracer is
// the disabled mode.
type Tracer struct {
	t0 time.Time

	mu     sync.Mutex
	events []Event
	procs  map[int]string

	// reg owns every instrument of the traced run: the counters engines
	// feed, the per-category span-duration histograms, and
	// whatever instrumented subsystems (backend pool, cluster, sampler)
	// hang off it. durHists caches the per-category "<cat>.dur_ns"
	// histogram so Span.End resolves it without a registry lock in the
	// common case.
	reg      *obs.Registry
	durHists map[string]*obs.Histogram
}

// New returns an enabled tracer whose real-time clock starts now.
func New() *Tracer {
	t := &Tracer{
		t0:       time.Now(),
		procs:    make(map[int]string),
		reg:      obs.NewRegistry(),
		durHists: make(map[string]*obs.Histogram),
	}
	t.procs[PidHost] = "host (real time)"
	t.procs[PidEngine] = "engine phases (virtual time)"
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the tracer's unified metrics registry, nil on the
// disabled tracer — and a nil *obs.Registry is itself the disabled
// registry, so callers chain unconditionally.
func (t *Tracer) Registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// durHist returns the cached "<cat>.dur_ns" histogram that accumulates
// span durations for the category. Called with t.mu held.
func (t *Tracer) durHistLocked(cat string) *obs.Histogram {
	h, ok := t.durHists[cat]
	if !ok {
		h = t.reg.Hist(cat + ".dur_ns")
		t.durHists[cat] = h
	}
	return h
}

// nowNS is the tracer's real-time clock: nanoseconds since New.
func (t *Tracer) nowNS() int64 { return time.Since(t.t0).Nanoseconds() }

// SetProcessName labels a track in the exported trace ("node 3", "host").
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs[pid] = name
}

// Span is an in-flight real-time span returned by Begin. End completes it;
// a Span that is never ended is never recorded. The nil Span is inert.
type Span struct {
	t       *Tracer
	name    string
	cat     string
	startNS int64
	args    map[string]float64
}

// Begin starts a real-time span on the host track. cat is the stable
// aggregation key ("native.pr.iter"); name may carry instance detail.
// Returns nil — a no-op span — on the disabled tracer.
func (t *Tracer) Begin(cat, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, startNS: t.nowNS()}
}

// Arg attaches a numeric attribute to the span (chainable). Nil-safe.
func (s *Span) Arg(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]float64, 4)
	}
	s.args[key] = v
	return s
}

// End completes the span and records it. Nil-safe; End on an already-ended
// span records nothing.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	ev := Event{
		Name:    s.name,
		Cat:     s.cat,
		Pid:     PidHost,
		StartNS: s.startNS,
		DurNS:   t.nowNS() - s.startNS,
		Args:    s.args,
	}
	s.t = nil
	//lint:ignore lock the histogram records after the Unlock, outside the tracer lock; the section appends and resolves the category's histogram, and it has no return
	t.mu.Lock()
	t.events = append(t.events, ev)
	h := t.durHistLocked(s.cat)
	t.mu.Unlock()
	// Every ended span also lands in the category's latency histogram, so
	// p50/p99 per engine phase falls out of existing instrumentation.
	h.Record(0, ev.DurNS)
}

// RecordVirtual records a completed span on a virtual-time track at an
// explicit position: startSec/durSec are modeled seconds since the run
// began. args may be nil; the map is retained, not copied.
func (t *Tracer) RecordVirtual(pid int, cat, name string, startSec, durSec float64, args map[string]float64) {
	if t == nil {
		return
	}
	ev := Event{
		Name:    name,
		Cat:     cat,
		Pid:     pid,
		StartNS: int64(startSec * 1e9),
		DurNS:   int64(durSec * 1e9),
		Args:    args,
	}
	//lint:ignore lock the histogram records after the Unlock, outside the tracer lock; the section appends and resolves the category's histogram, and it has no return
	t.mu.Lock()
	t.events = append(t.events, ev)
	h := t.durHistLocked(cat)
	t.mu.Unlock()
	// Virtual spans (engine phases, per-node cluster work) feed the same
	// per-category histograms as real-time spans; the lane is the track's
	// pid so simulated nodes do not contend on one lane.
	h.Record(pid, ev.DurNS)
}

// Events returns a snapshot of the recorded spans.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// processNames returns a snapshot of the track labels.
func (t *Tracer) processNames() map[int]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.procs))
	for k, v := range t.procs {
		out[k] = v
	}
	return out
}
