package obs

import (
	"runtime"
	"sort"
	"sync"
)

// Registry owns every named instrument: counters, gauges and histograms.
// Get-or-create accessors take the lock once per metric lifetime; the
// returned handles are lock-free afterwards, so callers resolve a handle
// once and keep it. A nil *Registry is a valid disabled registry: accessors
// return nil handles whose methods are themselves no-ops, so instrumented
// code needs no enabled/disabled branches beyond the pointer checks already
// inside each call.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
		counters: make(map[string]*Counter),
	}
}

// Hist returns the named histogram, creating it with one lane per
// GOMAXPROCS worker on first use. Returns nil on a nil registry.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(name, runtime.GOMAXPROCS(0))
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter returns the named counter, creating it on first use. Returns
// nil — the disabled counter — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterPoint is one sampled counter value.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one sampled gauge value.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a consistent-enough point-in-time copy of the registry,
// with every section sorted by name so exposition is deterministic.
type Snapshot struct {
	Counters []CounterPoint `json:"counters,omitempty"`
	Gauges   []GaugePoint   `json:"gauges,omitempty"`
	Hists    []HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot samples every metric. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for _, h := range r.hists {
		s.Hists = append(s.Hists, h.Snapshot())
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// HistSnapshots samples only the histograms, keyed by name — the shape
// the harness diffs around each run. Returns nil on a nil registry.
func (r *Registry) HistSnapshots() map[string]HistSnapshot {
	if r == nil {
		return nil
	}
	//lint:ignore lock the snapshots run after the Unlock, outside the registry lock; under it a slice is filled from a map, which cannot panic or return
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(hs))
	for _, h := range hs {
		out[h.name] = h.Snapshot()
	}
	return out
}
