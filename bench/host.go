package main

import (
	"encoding/binary"
	"math"
	"sync"
	"syscall"
	"time"
)

// The host probe. On the sandbox this benchmark was defined on, the speed
// of the memory system drifts by ±15% over minutes (neighbours on the same
// machine), and every workload's time follows it: over a 22-minute record,
// 30-second means of a dependent-load chain and of the workloads' slice
// times correlate at 0.95 to 0.97, while a register-only spin loop stays
// flat. Two runs of the same code a few minutes apart therefore disagree by
// 10 to 20% on every timing unless the drift is divided out.
//
// So every pass interleaves short bursts of that chain with its work, with
// the clients stopped, and every time it reports is scaled to what it would
// have been at nominalLoadNs:
//
//	adjusted = measured × (nominalLoadNs / measured ns per load)^hostExponent
//
// The exponent is the log–log slope between the chain and the workloads in
// that record (0.73 for cache hits, 0.88 for recomputed queries): the
// workloads are not purely bound by memory latency. On the record the
// adjustment cuts the run-to-run spread of a 5-pass median from 10–12% to
// about 3%. The raw probe value is reported as host.memwalk_ns.
const (
	probeBytes    = 16 << 20 // beyond the 4 MB per-core L2
	probeSteps    = 300_000  // per burst and goroutine, about 40 ms
	nominalLoadNs = 120.0    // a quiet hour on the reference host
	hostExponent  = 0.8
)

// hostProbe holds the chain outside the Go heap, so that it neither moves
// the collector's pacing nor shows up in retained_mb.
type hostProbe struct {
	chain  []byte
	loadNs []float64 // one value per burst
}

func newHostProbe() (*hostProbe, error) {
	chain, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// i → (i·K + c) mod 2^22 with K ≡ 1 (mod 4) and c odd is one cycle
	// through every slot, in an order no prefetcher follows.
	const n = probeBytes / 4
	for i := uint64(0); i < n; i++ {
		binary.LittleEndian.PutUint32(chain[4*i:], uint32((i*2654435761+12345)%n))
	}
	return &hostProbe{chain: chain}, nil
}

func (h *hostProbe) close() { _ = syscall.Munmap(h.chain) }

// burst walks the chain on two goroutines at once (both cores, as the
// workloads use them) and records the time per dependent load. Nothing
// else runs meanwhile: callers stop their clients first.
func (h *hostProbe) burst() {
	var wg sync.WaitGroup
	var sink [2]uint32
	start := time.Now()
	for g := range sink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := uint32(g*(probeBytes/8) + 1)
			for s := 0; s < probeSteps; s++ {
				i = binary.LittleEndian.Uint32(h.chain[4*i:])
			}
			sink[g] = i
		}(g)
	}
	wg.Wait()
	h.loadNs = append(h.loadNs, float64(time.Since(start))/probeSteps)
}

// meanLoadNs is the pass's host reading: the mean over its bursts.
func (h *hostProbe) meanLoadNs() float64 {
	var sum float64
	for _, ns := range h.loadNs {
		sum += ns
	}
	return sum / float64(len(h.loadNs))
}

// hostFactor is what a measured time is multiplied by (and a rate divided
// by) to state it at the nominal host speed.
func hostFactor(loadNs float64) float64 {
	if loadNs <= 0 {
		return 1
	}
	return math.Pow(nominalLoadNs/loadNs, hostExponent)
}

// scaleByUnit applies the host factor to a value of the given unit: times
// are multiplied, rates divided, sizes, counts and ratios left alone.
func scaleByUnit(unit string, v, f float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * f
	case "1/s", "GB/s", "Medges/s":
		return v / f
	}
	return v
}
