package obs

import (
	"runtime"
	"time"
)

// Sampler periodically snapshots Go runtime statistics into a registry:
// heap gauges, goroutine count, GC cycle count, and every new GC pause
// fed into the runtime.gc_pause_ns histogram. One sample costs one
// runtime.ReadMemStats (a brief stop-the-world), so the default interval
// is coarse; the workloads here run for seconds, not microseconds.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	// lastNumGC tracks how far into the MemStats.PauseNs ring we have
	// consumed, so each pause is recorded exactly once.
	lastNumGC uint32
}

// DefaultSampleInterval is the sampler cadence when the caller does not
// choose one.
const DefaultSampleInterval = 250 * time.Millisecond

// StartSampler begins sampling reg every interval (DefaultSampleInterval
// if interval <= 0) and returns the running sampler. One sample is taken
// immediately so short runs still export runtime state. Returns nil on a
// nil registry.
func StartSampler(reg *Registry, interval time.Duration) *Sampler {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.sampleOnce()
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sampleOnce()
		}
	}
}

// sampleOnce reads the runtime stats and publishes them.
func (s *Sampler) sampleOnce() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.reg.Gauge("runtime.heap_alloc_bytes").Set(float64(m.HeapAlloc))
	s.reg.Gauge("runtime.heap_sys_bytes").Set(float64(m.HeapSys))
	s.reg.Gauge("runtime.heap_objects").Set(float64(m.HeapObjects))
	s.reg.Gauge("runtime.next_gc_bytes").Set(float64(m.NextGC))
	s.reg.Gauge("runtime.gc_cycles").Set(float64(m.NumGC))
	s.reg.Gauge("runtime.gc_cpu_fraction").Set(m.GCCPUFraction)
	s.reg.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("runtime.gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))

	// Feed pauses newer than the last sample into the pause histogram.
	// PauseNs is a 256-entry circular buffer: GC number g (1-based) lands
	// at (g+255)%256, so the GCs numbered lastNumGC+1..NumGC sit at
	// lastNumGC%256..(NumGC-1)%256. If more than 256 GCs happened between
	// samples the overwritten ones are simply lost.
	if n := m.NumGC; n > s.lastNumGC {
		h := s.reg.Hist("runtime.gc_pause_ns")
		first := s.lastNumGC
		if n-first > 256 {
			first = n - 256
		}
		for i := first; i < n; i++ {
			h.Record(0, int64(m.PauseNs[i%256]))
		}
		s.lastNumGC = n
	}
}

// Stop halts the sampler after taking one final sample, and waits for the
// loop to exit. Safe on a nil sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.sampleOnce()
}
