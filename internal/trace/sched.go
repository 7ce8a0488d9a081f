package trace

import "graphmaze/internal/obs"

// SchedCounters bundles the scheduling-layer counters par's loops feed:
// chunks claimed, loop indices processed, and busy nanoseconds, each with
// one lane per worker so load imbalance is readable straight from the
// lanes.
type SchedCounters struct {
	// Chunks counts chunks claimed (one per body invocation).
	Chunks *obs.Counter
	// Items counts loop indices processed (hi-lo per chunk).
	Items *obs.Counter
	// BusyNS counts nanoseconds spent inside loop bodies.
	BusyNS *obs.Counter
}

// schedBusyNS names the counter Summarize reads scheduler imbalance from.
const schedBusyNS = "par.busy_ns"

// Sched returns the scheduling counter bundle over the tracer's registry
// ("par.chunks", "par.items", "par.busy_ns"), creating the counters on
// first use. Nil on the disabled tracer.
func (t *Tracer) Sched() *SchedCounters {
	if t == nil {
		return nil
	}
	return &SchedCounters{
		Chunks: t.reg.Counter("par.chunks"),
		Items:  t.reg.Counter("par.items"),
		BusyNS: t.reg.Counter(schedBusyNS),
	}
}

// laneImbalance reports max/mean busy nanoseconds across the workers that
// did any work — 1.0 is a perfectly balanced schedule, 2.0 means the
// slowest worker carried twice the average. Zero when nothing was recorded.
func laneImbalance(lanes []int64) float64 {
	var sum, max int64
	active := 0
	for _, v := range lanes {
		if v == 0 {
			continue
		}
		active++
		sum += v
		if v > max {
			max = v
		}
	}
	if active == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(active) / float64(sum)
}
