package trace

import (
	"sort"

	"graphmaze/internal/obs"
)

// PhaseStat aggregates every span sharing one category: how many there
// were, the time they cover, and the compute/network/wait attribution
// carried in span args (zero when a category records no attribution).
type PhaseStat struct {
	Cat        string  `json:"cat"`
	Count      int     `json:"count"`
	TotalSec   float64 `json:"total_sec"`
	ComputeSec float64 `json:"compute_sec"`
	NetworkSec float64 `json:"network_sec"`
	WaitSec    float64 `json:"wait_sec"`
}

// Summary is the machine-readable digest of a tracer: the per-category
// phase timeline, the virtual time covered by simulated-node spans, and
// the tracer's registry.
type Summary struct {
	Spans    int         `json:"spans"`
	Timeline []PhaseStat `json:"timeline"`
	// VirtualSeconds is the largest per-node sum of virtual span durations
	// — the simulated time the trace accounts for. Comparing it against
	// the cluster report's SimulatedSeconds gives span coverage.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Metrics is one snapshot of the tracer's registry in the shape
	// /metrics.json serves: every counter and gauge by name, and every
	// histogram's quantile summary (count, mean, p50/p90/p99/p999, max) —
	// the per-category span-duration histograms plus whatever the
	// instrumented subsystems fed in.
	Metrics obs.JSONSnapshot `json:"metrics"`
}

// Summarize digests the tracer's spans and one snapshot of its registry.
// Nil on the disabled tracer.
func Summarize(t *Tracer) *Summary {
	if t == nil {
		return nil
	}
	events := t.Events()
	byCat := make(map[string]*PhaseStat)
	perNode := make(map[int]float64)
	for _, ev := range events {
		st := byCat[ev.Cat]
		if st == nil {
			st = &PhaseStat{Cat: ev.Cat}
			byCat[ev.Cat] = st
		}
		st.Count++
		st.TotalSec += float64(ev.DurNS) / 1e9
		st.ComputeSec += ev.Args["compute_sec"]
		st.NetworkSec += ev.Args["network_sec"]
		st.WaitSec += ev.Args["wait_sec"]
		if ev.Pid >= PidNodeBase {
			perNode[ev.Pid] += float64(ev.DurNS) / 1e9
		}
	}
	s := &Summary{Spans: len(events)}
	for _, st := range byCat {
		s.Timeline = append(s.Timeline, *st)
	}
	sort.Slice(s.Timeline, func(i, j int) bool { return s.Timeline[i].Cat < s.Timeline[j].Cat })
	for _, sec := range perNode {
		if sec > s.VirtualSeconds {
			s.VirtualSeconds = sec
		}
	}

	s.Metrics = t.reg.Snapshot().JSON()
	return s
}
