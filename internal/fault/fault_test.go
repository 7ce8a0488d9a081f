package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Crash: "crash", Drop: "drop", Truncate: "trunc", Slow: "slow", Degrade: "degrade",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNilPlanIsHealthy(t *testing.T) {
	var p *Plan
	if p.CrashPoint(0, 0) {
		t.Error("nil plan crashed")
	}
	if v := p.MessageFault(0, 0, 1); v != Deliver {
		t.Errorf("nil plan verdict = %v", v)
	}
	if f := p.SlowFactor(0, 0); f != 1 {
		t.Errorf("nil plan slow factor = %v", f)
	}
	if f := p.DegradeFactor(0); f != 1 {
		t.Errorf("nil plan degrade factor = %v", f)
	}
	if d := p.DetectSeconds(); d != 0 {
		t.Errorf("nil plan detect = %v", d)
	}
}

func TestCrashOneShot(t *testing.T) {
	p := (&Plan{}).Add(Event{Kind: Crash, Phase: 3, Node: 1})
	if p.CrashPoint(3, 0) {
		t.Error("crash fired for wrong node")
	}
	if p.CrashPoint(2, 1) {
		t.Error("crash fired for wrong phase")
	}
	if !p.CrashPoint(3, 1) {
		t.Fatal("crash did not fire")
	}
	if p.CrashPoint(3, 1) {
		t.Error("one-shot crash fired twice")
	}
	fired := p.Fired()
	if len(fired) != 1 || fired[0].Kind != Crash || fired[0].Phase != 3 {
		t.Errorf("Fired = %v", fired)
	}
}

func TestCrashAnyNode(t *testing.T) {
	p := (&Plan{}).Add(Event{Kind: Crash, Phase: 0, Node: Any})
	if !p.CrashPoint(0, 7) {
		t.Error("Any-node crash did not fire")
	}
}

func TestMessageFaultMatching(t *testing.T) {
	p := (&Plan{}).
		Add(Event{Kind: Drop, Phase: 1, From: 0, To: 2}).
		Add(Event{Kind: Truncate, Phase: 2, From: Any, To: Any})
	if v := p.MessageFault(1, 0, 1); v != Deliver {
		t.Errorf("wrong receiver matched: %v", v)
	}
	if v := p.MessageFault(1, 0, 2); v != Dropped {
		t.Errorf("drop verdict = %v", v)
	}
	if v := p.MessageFault(1, 0, 2); v != Deliver {
		t.Error("one-shot drop fired twice")
	}
	if v := p.MessageFault(2, 3, 1); v != Truncated {
		t.Errorf("any-any truncate verdict = %v", v)
	}
}

func TestSlowAndDegradeRanges(t *testing.T) {
	p := (&Plan{}).
		Add(Event{Kind: Slow, Phase: 2, PhaseEnd: 4, Node: 1, Factor: 3}).
		Add(Event{Kind: Degrade, Phase: 0, PhaseEnd: 1, Factor: 4})
	if f := p.SlowFactor(3, 1); f != 3 {
		t.Errorf("in-range slow factor = %v", f)
	}
	if f := p.SlowFactor(5, 1); f != 1 {
		t.Errorf("out-of-range slow factor = %v", f)
	}
	if f := p.SlowFactor(3, 0); f != 1 {
		t.Errorf("wrong-node slow factor = %v", f)
	}
	if f := p.DegradeFactor(1); f != 4 {
		t.Errorf("in-range degrade factor = %v", f)
	}
	if f := p.DegradeFactor(2); f != 1 {
		t.Errorf("out-of-range degrade factor = %v", f)
	}
	// Ranges are not consumed: they apply every phase in range.
	if f := p.SlowFactor(3, 1); f != 3 {
		t.Errorf("slow factor consumed: %v", f)
	}
}

func TestDetectSeconds(t *testing.T) {
	if d := (&Plan{}).DetectSeconds(); d != DefaultDetectSeconds {
		t.Errorf("default detect = %v", d)
	}
}

func TestErrorClassification(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &Error{Kind: Crash, Phase: 5, Node: 2})
	var fe *Error
	if !errors.As(err, &fe) || fe.Phase != 5 || fe.Node != 2 {
		t.Errorf("errors.As extracted %+v", fe)
	}
	if errors.As(errors.New("plain"), &fe) {
		t.Error("errors.As matched a plain error")
	}
}

func TestSeededDeterminism(t *testing.T) {
	cfg := SeedConfig{Phases: 20, Nodes: 8, Crashes: 4}
	a := Seeded(42, cfg).Events()
	b := Seeded(42, cfg).Events()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
	c := Seeded(43, cfg).Events()
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	if len(a) != 4 {
		t.Errorf("seeded plan has %d events, want 4", len(a))
	}
}

func TestSeededDefaultsToOneCrash(t *testing.T) {
	events := Seeded(1, SeedConfig{}).Events()
	if len(events) != 1 || events[0].Kind != Crash {
		t.Errorf("default seeded plan = %v, want one crash", events)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("crash@6:n1, drop@2:0-3, trunc@4, slow@1-3:n2x2.5, degrade@0-1x4")
	if err != nil {
		t.Fatal(err)
	}
	events := p.Events()
	if len(events) != 5 {
		t.Fatalf("parsed %d events: %v", len(events), events)
	}
	want := []Event{
		{Kind: Crash, Phase: 6, PhaseEnd: 6, Node: 1, Factor: 1},
		{Kind: Drop, Phase: 2, PhaseEnd: 2, From: 0, To: 3, Factor: 1},
		{Kind: Truncate, Phase: 4, PhaseEnd: 4, From: Any, To: Any, Factor: 1},
		{Kind: Slow, Phase: 1, PhaseEnd: 3, Node: 2, Factor: 2.5},
		{Kind: Degrade, Phase: 0, PhaseEnd: 1, Factor: 4},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("parsed:\n%v\nwant:\n%v", events, want)
	}
}

func TestParsePlanSeedEntry(t *testing.T) {
	p, err := ParsePlan("seed@7:c2")
	if err != nil {
		t.Fatal(err)
	}
	events := p.Events()
	if len(events) != 2 {
		t.Fatalf("seed entry produced %d events", len(events))
	}
	for _, e := range events {
		if e.Kind != Crash {
			t.Errorf("seed entry produced %v", e)
		}
	}
	q, _ := ParsePlan("seed@7:c2")
	if !reflect.DeepEqual(events, q.Events()) {
		t.Error("seed entry is not deterministic")
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"crash", "crash@x", "drop@1:5", "slow@1-2", "slow@1-2:n0x0.5",
		"degrade@3x0.1", "degrade@3", "bogus@1", "crash@1:nx",
		"slow@2-1:n0x2", "seed@x",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

func TestParsePlanEmptyEntriesSkipped(t *testing.T) {
	p, err := ParsePlan(" , crash@1, ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events()) != 1 {
		t.Errorf("events = %v", p.Events())
	}
}

func TestEventStringRoundTrip(t *testing.T) {
	// The String form of each event kind re-parses to the same event.
	for _, e := range []Event{
		{Kind: Crash, Phase: 6, PhaseEnd: 6, Node: 1, Factor: 1},
		{Kind: Drop, Phase: 2, PhaseEnd: 2, From: 0, To: 3, Factor: 1},
		{Kind: Slow, Phase: 1, PhaseEnd: 3, Node: 2, Factor: 2.5},
		{Kind: Degrade, Phase: 0, PhaseEnd: 1, Factor: 4},
	} {
		p, err := ParsePlan(e.String())
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", e.String(), err)
			continue
		}
		if got := p.Events(); len(got) != 1 || !reflect.DeepEqual(got[0], e) {
			t.Errorf("round trip of %q = %v", e.String(), got)
		}
	}
}
