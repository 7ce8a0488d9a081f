// Package fault implements the deterministic failure model of the
// simulated cluster (DESIGN.md §10). The frameworks the paper benchmarks
// ship availability machinery — Giraph inherits Pregel's synchronous
// superstep checkpointing — so a faithful multi-node comparison needs a
// failure model, and follow-up evaluations (Ammar & Özsu 2018) treat fault
// behaviour as a first-class comparison axis. Reproducible measurement
// (Pollard & Norris 2017) demands the model be seeded and deterministic:
// a Plan is a fixed schedule of events, either spelled out explicitly or
// generated from a seed, and the same plan always produces the same
// failure (and therefore recovery) timeline.
//
// Faults key on the cluster's executed-phase counter, which is monotonic
// and never rolled back: one-shot events (crash, drop, truncate) are
// consumed when they fire, so a replayed phase — which executes under a
// fresh index — does not re-fail, exactly like a real transient fault.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the injected fault classes.
type Kind int

const (
	// Crash fails a node at the start of its compute for one phase.
	Crash Kind = iota
	// Drop loses a message payload in transit (detected transport-level,
	// like a missed ack: the exchange fails and the phase aborts).
	Drop
	// Truncate cuts a message payload short in transit (detected by the
	// transport's length check, with the same phase-abort consequence).
	Truncate
	// Slow is a straggler: one node's compute time is multiplied over a
	// phase range.
	Slow
	// Degrade divides the communication layer's bandwidth (and multiplies
	// its latency) over a phase range.
	Degrade
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Truncate:
		return "trunc"
	case Slow:
		return "slow"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Any matches any node (or any sender/receiver) in an Event.
const Any = -1

// Event is one planned fault. Phase is the executed-phase index at which a
// one-shot event fires; Slow and Degrade apply over [Phase, PhaseEnd].
type Event struct {
	Kind     Kind
	Phase    int
	PhaseEnd int     // inclusive; defaults to Phase for range kinds
	Node     int     // Crash/Slow target; Any matches every node
	From, To int     // Drop/Truncate endpoints; Any matches everything
	Factor   float64 // Slow: compute multiplier; Degrade: bandwidth divisor
}

func (e Event) String() string {
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("crash@%d:n%d", e.Phase, e.Node)
	case Drop, Truncate:
		return fmt.Sprintf("%s@%d:%d-%d", e.Kind, e.Phase, e.From, e.To)
	case Slow:
		return fmt.Sprintf("slow@%d-%d:n%dx%g", e.Phase, e.PhaseEnd, e.Node, e.Factor)
	case Degrade:
		return fmt.Sprintf("degrade@%d-%dx%g", e.Phase, e.PhaseEnd, e.Factor)
	default:
		return e.Kind.String()
	}
}

// Error is the failure RunPhase surfaces for an injected fault. Recovery
// classifies it with errors.As.
type Error struct {
	Kind  Kind
	Phase int
	Node  int // failing node (Crash) or sender (Drop/Truncate)
	To    int // receiver for message faults
}

// Error implements error.
func (e *Error) Error() string {
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("fault: injected crash of node %d at phase %d", e.Node, e.Phase)
	case Drop:
		return fmt.Sprintf("fault: injected message drop %d→%d at phase %d", e.Node, e.To, e.Phase)
	case Truncate:
		return fmt.Sprintf("fault: injected message truncation %d→%d at phase %d", e.Node, e.To, e.Phase)
	default:
		return fmt.Sprintf("fault: injected %v at phase %d", e.Kind, e.Phase)
	}
}

// Verdict is a Plan's decision about one in-flight payload.
type Verdict int

const (
	// Deliver passes the payload through unharmed.
	Deliver Verdict = iota
	// Dropped loses the payload.
	Dropped
	// Truncated delivers a prefix (detected by the transport).
	Truncated
)

// Plan is a deterministic fault schedule, consulted by the cluster at its
// fault points. The zero Plan, and the nil one, are healthy. Plans are
// single-use: one-shot events are consumed as they fire, so construct a
// fresh Plan (same spec or seed) per run. The cluster calls a plan from
// one RunPhase at a time, and the same call sequence yields the same
// verdicts.
type Plan struct {
	mu     sync.Mutex
	events []Event
	fired  []Event // consumed one-shot events, in firing order
}

// DefaultDetectSeconds models a heartbeat-timeout failure detector
// (ZooKeeper-style session expiry runs seconds; we charge a conservative
// fraction of that).
const DefaultDetectSeconds = 0.5

// Add appends an event, normalizing defaults (PhaseEnd, factors).
func (p *Plan) Add(e Event) *Plan {
	if e.PhaseEnd < e.Phase {
		e.PhaseEnd = e.Phase
	}
	if e.Factor == 0 {
		e.Factor = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, e)
	return p
}

// Events returns a copy of the planned events.
func (p *Plan) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Fired returns the one-shot events consumed so far, in firing order —
// the run's failure timeline. Two runs with the same plan and workload
// produce identical Fired sequences (asserted in tests).
func (p *Plan) Fired() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.fired...)
}

// CrashPoint reports whether node fails while computing the given
// executed phase. A firing crash event is consumed.
func (p *Plan) CrashPoint(phase, node int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.events {
		if e.Kind == Crash && e.Phase == phase && (e.Node == Any || e.Node == node) {
			p.consume(i)
			return true
		}
	}
	return false
}

// MessageFault judges a payload exchanged during the given phase. A
// firing drop/truncate event is consumed.
func (p *Plan) MessageFault(phase, from, to int) Verdict {
	if p == nil {
		return Deliver
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.events {
		if (e.Kind != Drop && e.Kind != Truncate) || e.Phase != phase {
			continue
		}
		if (e.From != Any && e.From != from) || (e.To != Any && e.To != to) {
			continue
		}
		kind := e.Kind
		p.consume(i)
		if kind == Drop {
			return Dropped
		}
		return Truncated
	}
	return Deliver
}

// consume moves events[i] to the fired log. Caller holds p.mu.
func (p *Plan) consume(i int) {
	p.fired = append(p.fired, p.events[i])
	p.events = append(p.events[:i], p.events[i+1:]...)
}

// SlowFactor returns the compute-time multiplier for node at phase (≥1;
// 1 means healthy).
func (p *Plan) SlowFactor(phase, node int) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := 1.0
	for _, e := range p.events {
		if e.Kind == Slow && phase >= e.Phase && phase <= e.PhaseEnd &&
			(e.Node == Any || e.Node == node) && e.Factor > f {
			f = e.Factor
		}
	}
	return f
}

// DegradeFactor returns the bandwidth divisor for the phase (≥1; 1 means
// healthy).
func (p *Plan) DegradeFactor(phase int) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f := 1.0
	for _, e := range p.events {
		if e.Kind == Degrade && phase >= e.Phase && phase <= e.PhaseEnd && e.Factor > f {
			f = e.Factor
		}
	}
	return f
}

// DetectSeconds is the modeled failure-detection latency charged to the
// virtual clock when a phase aborts (heartbeat timeout, barrier consensus
// on the failure).
func (p *Plan) DetectSeconds() float64 {
	if p == nil {
		return 0
	}
	return DefaultDetectSeconds
}

// SeedConfig sizes a randomly generated plan.
type SeedConfig struct {
	// Phases is the executed-phase horizon events are placed in (default
	// 16).
	Phases int
	// Nodes is the node-count events target (default 4).
	Nodes int
	// Crashes is the number of one-shot crashes (default 1).
	Crashes int
}

func (c SeedConfig) withDefaults() SeedConfig {
	if c.Phases <= 0 {
		c.Phases = 16
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Crashes == 0 {
		c.Crashes = 1
	}
	return c
}

// Seeded generates a deterministic random plan: the same seed and config
// always produce the same event schedule.
func Seeded(seed int64, cfg SeedConfig) *Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	for i := 0; i < cfg.Crashes; i++ {
		p.Add(Event{Kind: Crash, Phase: rng.Intn(cfg.Phases), Node: rng.Intn(cfg.Nodes)})
	}
	// Stable order so the plan's string form (and event scan order) does
	// not depend on generation order across config changes.
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].Phase < p.events[j].Phase })
	return p
}

// ParsePlan builds a plan from a compact comma-separated spec, the grammar
// the graphbench -faults flag accepts:
//
//	crash@P[:nN]         node N (default 0) crashes at executed phase P
//	drop@P[:F-T]         message F→T (default any→any) dropped at phase P
//	trunc@P[:F-T]        message F→T truncated at phase P
//	slow@P1-P2:nNxF      node N computes F× slower over phases P1..P2
//	degrade@P1-P2xF      comm bandwidth divided by F over phases P1..P2
//	seed@S[:cK]          K (default 1) seeded random crashes from seed S
//
// Example: "crash@6:n1,degrade@0-3x4".
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, rest, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q lacks '@' (want e.g. crash@6)", entry)
		}
		ev, err := parseEntry(kind, rest)
		if err != nil {
			return nil, fmt.Errorf("fault: entry %q: %w", entry, err)
		}
		if kind == "seed" {
			seeded := Seeded(int64(ev.Phase), SeedConfig{Crashes: max(ev.Node, 1)})
			for _, e := range seeded.Events() {
				p.Add(e)
			}
			continue
		}
		p.Add(ev)
	}
	return p, nil
}

// parseEntry decodes one spec entry body. For seed entries, Phase carries
// the seed and Node the crash count.
func parseEntry(kind, rest string) (Event, error) {
	switch kind {
	case "crash":
		phasePart, nodePart, hasNode := strings.Cut(rest, ":")
		phase, err := strconv.Atoi(phasePart)
		if err != nil {
			return Event{}, fmt.Errorf("bad phase %q", phasePart)
		}
		node := 0
		if hasNode {
			node, err = parseNode(nodePart)
			if err != nil {
				return Event{}, err
			}
		}
		return Event{Kind: Crash, Phase: phase, Node: node}, nil
	case "drop", "trunc":
		k := Drop
		if kind == "trunc" {
			k = Truncate
		}
		phasePart, pairPart, hasPair := strings.Cut(rest, ":")
		phase, err := strconv.Atoi(phasePart)
		if err != nil {
			return Event{}, fmt.Errorf("bad phase %q", phasePart)
		}
		from, to := Any, Any
		if hasPair {
			fromPart, toPart, ok := strings.Cut(pairPart, "-")
			if !ok {
				return Event{}, fmt.Errorf("bad endpoint pair %q (want F-T)", pairPart)
			}
			if from, err = strconv.Atoi(fromPart); err != nil {
				return Event{}, fmt.Errorf("bad sender %q", fromPart)
			}
			if to, err = strconv.Atoi(toPart); err != nil {
				return Event{}, fmt.Errorf("bad receiver %q", toPart)
			}
		}
		return Event{Kind: k, Phase: phase, From: from, To: to}, nil
	case "slow":
		rangePart, rest, ok := strings.Cut(rest, ":")
		if !ok {
			return Event{}, errors.New("slow needs :nNxF")
		}
		p1, p2, err := parseRange(rangePart)
		if err != nil {
			return Event{}, err
		}
		nodePart, factorPart, ok := strings.Cut(rest, "x")
		if !ok {
			return Event{}, errors.New("slow needs a xF factor")
		}
		node, err := parseNode(nodePart)
		if err != nil {
			return Event{}, err
		}
		factor, err := strconv.ParseFloat(factorPart, 64)
		if err != nil || factor < 1 {
			return Event{}, fmt.Errorf("bad slow factor %q (want ≥1)", factorPart)
		}
		return Event{Kind: Slow, Phase: p1, PhaseEnd: p2, Node: node, Factor: factor}, nil
	case "degrade":
		rangePart, factorPart, ok := strings.Cut(rest, "x")
		if !ok {
			return Event{}, errors.New("degrade needs a xF factor")
		}
		p1, p2, err := parseRange(rangePart)
		if err != nil {
			return Event{}, err
		}
		factor, err := strconv.ParseFloat(factorPart, 64)
		if err != nil || factor < 1 {
			return Event{}, fmt.Errorf("bad degrade factor %q (want ≥1)", factorPart)
		}
		return Event{Kind: Degrade, Phase: p1, PhaseEnd: p2, Factor: factor}, nil
	case "seed":
		seedPart, crashPart, hasCount := strings.Cut(rest, ":")
		seed, err := strconv.Atoi(seedPart)
		if err != nil {
			return Event{}, fmt.Errorf("bad seed %q", seedPart)
		}
		crashes := 1
		if hasCount {
			cp := strings.TrimPrefix(crashPart, "c")
			if crashes, err = strconv.Atoi(cp); err != nil || crashes < 1 {
				return Event{}, fmt.Errorf("bad crash count %q", crashPart)
			}
		}
		return Event{Phase: seed, Node: crashes}, nil
	default:
		return Event{}, fmt.Errorf("unknown fault kind %q", kind)
	}
}

func parseNode(s string) (int, error) {
	s = strings.TrimPrefix(s, "n")
	if s == "*" {
		return Any, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad node %q", s)
	}
	return n, nil
}

func parseRange(s string) (int, int, error) {
	p1s, p2s, ok := strings.Cut(s, "-")
	if !ok {
		p2s = p1s
	}
	p1, err := strconv.Atoi(p1s)
	if err != nil {
		return 0, 0, fmt.Errorf("bad phase range %q", s)
	}
	p2, err := strconv.Atoi(p2s)
	if err != nil || p2 < p1 {
		return 0, 0, fmt.Errorf("bad phase range %q", s)
	}
	return p1, p2, nil
}
