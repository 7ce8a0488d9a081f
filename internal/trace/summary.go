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

// CounterSnapshot is one counter's final value with its per-worker lanes
// (lanes are omitted from JSON when all but one are zero — single-writer
// counters carry no balance information).
type CounterSnapshot struct {
	Name  string  `json:"name"`
	Total int64   `json:"total"`
	Lanes []int64 `json:"lanes,omitempty"`
}

// Summary is the machine-readable digest of a tracer: the per-category
// phase timeline, counter snapshots, and the virtual time covered by
// simulated-node spans.
type Summary struct {
	Spans    int               `json:"spans"`
	Timeline []PhaseStat       `json:"timeline"`
	Counters []CounterSnapshot `json:"counters"`
	// VirtualSeconds is the largest per-node sum of virtual span durations
	// — the simulated time the trace accounts for. Comparing it against
	// the cluster report's SimulatedSeconds gives span coverage.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// SchedImbalance is max/mean busy time across par workers (0 when the
	// scheduling counters were not attached).
	SchedImbalance float64 `json:"sched_imbalance"`
	// Histograms carries the quantile summary (count, mean, p50/p90/p99/
	// p999, max — nanoseconds) of every registry histogram that recorded
	// anything: the per-category span-duration histograms plus whatever the
	// instrumented subsystems fed in.
	Histograms []obs.NamedQuantiles `json:"histograms,omitempty"`
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

	snap := t.reg.Snapshot()
	for _, c := range snap.Counters {
		cs := CounterSnapshot{Name: c.Name, Total: c.Value}
		active := 0
		for _, v := range c.Lanes {
			if v != 0 {
				active++
			}
		}
		if active > 1 {
			cs.Lanes = c.Lanes
		}
		s.Counters = append(s.Counters, cs)
		if c.Name == schedBusyNS {
			s.SchedImbalance = laneImbalance(c.Lanes)
		}
	}
	s.Histograms = obs.HistStats(snap)
	return s
}
