package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
// It sorts xs in place.
func quantile[T int64 | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(idx, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// kindQuantileMs is the paper's aggregate over a multimodal mix: the
// geometric mean over op kinds of each kind's q-quantile latency, in ms. A
// plain quantile of the whole mix sits between the modes and moves with
// the mix, not with the code. A kind with sub-kinds ("miss/<target>") is
// itself the geometric mean over them, for the same reason.
func kindQuantileMs(lat map[string][]int64, q float64) float64 {
	subs := make(map[string][]float64)
	for key, xs := range lat {
		kind, _, _ := strings.Cut(key, "/")
		subs[kind] = append(subs[kind], float64(quantile(slices.Clone(xs), q))/1e6)
	}
	var per []float64
	for _, qs := range subs {
		per = append(per, geomean(qs))
	}
	return geomean(per)
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// timedPhase accumulates the process-wide counters the end-to-end metrics
// are built from over the segments of a pass's timed phase. The clock and
// the CPU counter run only inside segments; between them the host probe's
// burst runs with both paused.
type timedPhase struct {
	host     *hostProbe
	wall     time.Duration
	cpu      time.Duration
	segStart time.Time
	segCPU   time.Duration
	mem      runtime.MemStats
}

func startPhase(host *hostProbe) *timedPhase {
	t := &timedPhase{host: host}
	host.burst()
	runtime.GC()
	runtime.ReadMemStats(&t.mem)
	t.resume()
	return t
}

func (t *timedPhase) resume() {
	t.segCPU = processCPU()
	t.segStart = time.Now()
}

func (t *timedPhase) pause() {
	t.wall += time.Since(t.segStart)
	t.cpu += processCPU() - t.segCPU
}

// between is called where the phase's work is quiescent.
func (t *timedPhase) between() {
	t.pause()
	t.host.burst()
	t.resume()
}

// stop ends the last segment and fills the timed-phase fields of res. The
// retained heap is read after two forced collections, with everything the
// caller still holds (server, epoch store, result cache, graphs) live.
func (t *timedPhase) stop(res *passResult) {
	t.pause()
	t.host.burst()
	res.WallS = t.wall.Seconds()
	res.CPUMs = float64(t.cpu) / 1e6
	res.HostNs = t.host.meanLoadNs()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - t.mem.TotalAlloc
	res.Mallocs = after.Mallocs - t.mem.Mallocs
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.RetainedMB = float64(after.HeapAlloc) / (1 << 20)
	res.PeakRSSMB = peakRSSMB()
}
