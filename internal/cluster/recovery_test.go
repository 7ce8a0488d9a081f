package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/codec"
	"graphmaze/internal/fault"
)

// TestSendDoesNotAliasFirstPayload is the regression test for the Send
// append bug: appending a second payload into spare capacity of the first
// sender's backing array corrupted sibling slices sharing that array.
func TestSendDoesNotAliasFirstPayload(t *testing.T) {
	c, _ := New(testConfig(2))
	backing := []byte("abXY")
	first := backing[:2]   // "ab" with spare capacity over "XY"
	sibling := backing[2:] // the bytes an aliasing append would overwrite
	if err := c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, first)
			c.Send(0, 1, []byte("cd"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Recv(1); len(got) != 1 || string(got[0]) != "abcd" {
		t.Errorf("Recv = %q, want \"abcd\"", got)
	}
	if string(sibling) != "XY" {
		t.Errorf("Send overwrote the first payload's sibling bytes: %q", sibling)
	}
}

func TestSendThirdAppendReusesOwnedBuffer(t *testing.T) {
	c, _ := New(testConfig(2))
	if err := c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, []byte("a"))
			c.Send(0, 1, []byte("b"))
			c.Send(0, 1, []byte("c"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Recv(1); len(got) != 1 || string(got[0]) != "abc" {
		t.Errorf("Recv = %q, want \"abc\"", got)
	}
}

// TestComputeErrorCleanState covers RunPhase's clean-on-error contract:
// after a failed phase the outbox and accounted counters are cleared, the
// phase counter has advanced, and the next phase starts from a defined
// state.
func TestComputeErrorCleanState(t *testing.T) {
	c, _ := New(testConfig(2))
	boom := errors.New("boom")
	err := c.RunPhase(func(n int) error {
		c.Send(n, 1-n, []byte("stale"))
		c.Account(n, 1000, 1)
		if n == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunPhase error = %v", err)
	}
	if c.phases != 1 {
		t.Errorf("failed phase did not advance counter: %d", c.phases)
	}
	// The next phase must not deliver the aborted phase's sends or charge
	// its accounted traffic.
	before := c.Report().BytesSent
	if err := c.RunPhase(func(n int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Recv(0); len(got) != 0 {
		t.Errorf("aborted phase leaked sends: %q", got)
	}
	if after := c.Report().BytesSent; after != before {
		t.Errorf("aborted phase leaked accounted traffic: %d -> %d", before, after)
	}
	if r := c.Report(); r.FailedPhases != 1 {
		t.Errorf("FailedPhases = %d, want 1", r.FailedPhases)
	}
}

func TestInjectedCrashSurfacesFaultError(t *testing.T) {
	cfg := testConfig(2)
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 1, Node: 1})
	c, _ := New(cfg)
	if err := c.RunPhase(func(n int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	computed := make([]bool, 2)
	err := c.RunPhase(func(n int) error { computed[n] = true; return nil })
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("crash phase error = %v, want injected fault", err)
	}
	if fe.Kind != fault.Crash || fe.Node != 1 || fe.Phase != 1 {
		t.Errorf("fault error = %+v", fe)
	}
	if !computed[0] || computed[1] {
		t.Errorf("crash at node 1: computed = %v, want node 0 only", computed)
	}
	// Detection latency joins the virtual clock and the recovery tally.
	r := c.Report()
	if r.RecoverySeconds < fault.DefaultDetectSeconds {
		t.Errorf("RecoverySeconds = %v, want ≥ %v detect latency", r.RecoverySeconds, fault.DefaultDetectSeconds)
	}
	if r.SimulatedSeconds < r.RecoverySeconds {
		t.Errorf("detect latency not in SimulatedSeconds: %v < %v", r.SimulatedSeconds, r.RecoverySeconds)
	}
	// One-shot: the replayed phase (fresh index) runs clean.
	if err := c.RunPhase(func(n int) error { return nil }); err != nil {
		t.Errorf("phase after consumed crash failed: %v", err)
	}
}

func TestInjectedDropAbortsExchange(t *testing.T) {
	cfg := testConfig(3)
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Drop, Phase: 0, From: 0, To: 2})
	c, _ := New(cfg)
	err := c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, []byte("ok"))
			c.Send(0, 2, []byte("doomed"))
		}
		return nil
	})
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Drop || fe.Node != 0 || fe.To != 2 {
		t.Fatalf("drop error = %v", err)
	}
	// All-or-nothing: even the healthy 0→1 payload must not be delivered.
	if got := c.Recv(1); len(got) != 0 {
		t.Errorf("partial delivery after drop: %q", got)
	}
}

func TestStragglerStretchesPhase(t *testing.T) {
	run := func(factor float64) float64 {
		cfg := testConfig(2)
		if factor > 1 {
			cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Slow, Phase: 0, PhaseEnd: 10, Node: 0, Factor: factor})
		}
		c, _ := New(cfg)
		_ = c.RunPhase(func(n int) error {
			buf := make([]byte, 1<<16)
			for i := range buf {
				buf[i] = byte(i)
			}
			c.Send(n, 1-n, buf[:8])
			return nil
		})
		return c.Report().ComputeSeconds
	}
	slow, healthy := run(50), run(1)
	if slow <= healthy {
		t.Errorf("straggler compute %v not above healthy %v", slow, healthy)
	}
}

func TestDegradeStretchesNetwork(t *testing.T) {
	run := func(degraded bool) float64 {
		cfg := Config{Nodes: 2, Comm: CommLayer{Name: "t", Bandwidth: 1e6}}
		if degraded {
			cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Degrade, Phase: 0, PhaseEnd: 0, Factor: 4})
		}
		c, _ := New(cfg)
		_ = c.RunPhase(func(n int) error {
			if n == 0 {
				c.Send(0, 1, make([]byte, 1e6))
			}
			return nil
		})
		return c.Report().NetworkSeconds
	}
	deg, healthy := run(true), run(false)
	if deg < 3.9*healthy {
		t.Errorf("degraded network %v not ~4× healthy %v", deg, healthy)
	}
}

// toyEngine is a minimal checkpointable engine: each step every node
// appends the step index to a shared log via message exchange.
type toyEngine struct {
	c   *Cluster
	log []uint32
}

func (e *toyEngine) step(i int) (bool, error) {
	err := e.c.RunPhase(func(n int) error {
		if n == 0 {
			e.c.Send(0, 1, []byte{byte(i)})
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, p := range e.c.Recv(1) {
		for _, b := range p {
			e.log = append(e.log, uint32(b))
		}
	}
	return i >= 5, nil
}

func (e *toyEngine) snapshot() ([]byte, error) {
	return codec.AppendUint32s(nil, e.log), nil
}

func (e *toyEngine) restore(data []byte) error {
	log, _, err := codec.Uint32s(data)
	if err != nil {
		return err
	}
	e.log = log
	return nil
}

func TestRecoveryProducesFaultFreeOutput(t *testing.T) {
	run := func(plan *fault.Plan) ([]uint32, *Cluster) {
		cfg := testConfig(2)
		cfg.Fault = plan
		cfg.Ckpt = ckpt.Config{Interval: 2}
		c, _ := New(cfg)
		e := &toyEngine{c: c}
		rec := c.Recovery(e.snapshot, e.restore)
		if err := rec.Run(e.step); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return e.log, c
	}
	healthy, _ := run(nil)
	crashed, c := run((&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 3, Node: 1}))
	if !reflect.DeepEqual(healthy, crashed) {
		t.Errorf("recovered output %v != fault-free output %v", crashed, healthy)
	}
	r := c.Report()
	if r.Recoveries != 1 || r.FailedPhases != 1 {
		t.Errorf("Recoveries=%d FailedPhases=%d, want 1/1", r.Recoveries, r.FailedPhases)
	}
	if r.Checkpoints == 0 || r.CheckpointBytes == 0 || r.CheckpointSeconds <= 0 {
		t.Errorf("checkpoint accounting missing: %+v", r)
	}
	if r.RecoverySeconds <= 0 {
		t.Errorf("RecoverySeconds = %v", r.RecoverySeconds)
	}
	if r.ReplayedPhases < 1 {
		t.Errorf("ReplayedPhases = %d, want ≥1", r.ReplayedPhases)
	}
}

func TestRecoveryTimelineDeterministic(t *testing.T) {
	run := func() ([]fault.Event, int) {
		plan := (&fault.Plan{}).
			Add(fault.Event{Kind: fault.Crash, Phase: 2, Node: 0}).
			Add(fault.Event{Kind: fault.Drop, Phase: 5, From: 0, To: 1})
		cfg := testConfig(2)
		cfg.Fault = plan
		cfg.Ckpt = ckpt.Config{Interval: 1}
		c, _ := New(cfg)
		e := &toyEngine{c: c}
		if err := c.Recovery(e.snapshot, e.restore).Run(e.step); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return plan.Fired(), c.Report().Recoveries
	}
	firedA, recA := run()
	firedB, recB := run()
	if !reflect.DeepEqual(firedA, firedB) {
		t.Errorf("fired timelines diverged:\n%v\n%v", firedA, firedB)
	}
	if len(firedA) != 2 {
		t.Errorf("fired %d events, want both: %v", len(firedA), firedA)
	}
	if recA != 2 || recB != 2 {
		t.Errorf("recoveries = %d/%d, want 2", recA, recB)
	}
}

func TestRecoveryGivesUpAfterBound(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 1}
	c, _ := New(cfg)
	boom := errors.New("persistent")
	steps := 0
	err := c.Recovery(
		func() ([]byte, error) { return []byte{1}, nil },
		func([]byte) error { return nil },
	).Run(func(i int) (bool, error) {
		steps++
		return false, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("giving up after %d recoveries", MaxRecoveries)) {
		t.Errorf("error %q lacks recovery bound", err)
	}
	if steps != MaxRecoveries+1 { // initial attempt + one replay per recovery
		t.Errorf("step ran %d times, want %d", steps, MaxRecoveries+1)
	}
}

func TestRecoveryWithoutCheckpointing(t *testing.T) {
	c, _ := New(testConfig(2)) // Ckpt.Interval 0
	boom := errors.New("boom")
	rec := c.Recovery(
		func() ([]byte, error) { return nil, errors.New("must not be called") },
		func([]byte) error { return errors.New("must not be called") },
	)
	err := rec.Run(func(i int) (bool, error) {
		if i == 2 {
			return false, boom
		}
		return false, nil
	})
	if !errors.Is(err, boom) || strings.Contains(err.Error(), "recover") {
		t.Errorf("error without checkpointing = %v, want plain boom", err)
	}
	if rec.latest != nil || c.Report().Checkpoints != 0 {
		t.Error("disabled checkpointing took a checkpoint")
	}
}

// TestRecoveryCheckpointCadence: with Interval 3 a checkpoint is taken
// before steps 0, 3 and 6 and before no other.
func TestRecoveryCheckpointCadence(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 3}
	c, _ := New(cfg)
	var at []int
	steps := 0
	err := c.Recovery(
		func() ([]byte, error) { at = append(at, steps); return nil, nil },
		func([]byte) error { return nil },
	).Run(func(i int) (bool, error) {
		steps++
		return i >= 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 6}; !reflect.DeepEqual(at, want) {
		t.Errorf("checkpoints before steps %v, want %v", at, want)
	}
	if r := c.Report(); r.Checkpoints != 3 {
		t.Errorf("Report.Checkpoints = %d, want 3", r.Checkpoints)
	}
}

// TestRecoveryRollsBackToTheLatestCheckpoint: the driver holds only the
// newest checkpoint, and a failure rolls back to it, not to an older one.
func TestRecoveryRollsBackToTheLatestCheckpoint(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 2}
	// Step i runs phase i: the crash fails step 5, after the checkpoints
	// taken before steps 0, 2 and 4.
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 5, Node: 1})
	c, _ := New(cfg)
	e := &toyEngine{c: c}
	var restored []byte
	rec := c.Recovery(e.snapshot, func(data []byte) error {
		restored = append([]byte(nil), data...)
		return e.restore(data)
	})
	if err := rec.Run(e.step); err != nil {
		t.Fatal(err)
	}
	ck := rec.latest
	if ck == nil || ck.Step != 4 || ck.Phases != 4 {
		t.Fatalf("held checkpoint = %+v, want step 4 at phase 4", ck)
	}
	engine, _, err := codec.Section(ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	if want := codec.AppendUint32s(nil, []uint32{0, 1, 2, 3}); !bytes.Equal(engine, want) || !bytes.Equal(restored, want) {
		t.Errorf("held engine state %v, restored %v, want step 4's %v", engine, restored, want)
	}
	r := c.Report()
	if r.Checkpoints != 3 || r.Recoveries != 1 || r.ReplayedPhases != 2 {
		t.Errorf("Checkpoints=%d Recoveries=%d ReplayedPhases=%d, want 3/1/2", r.Checkpoints, r.Recoveries, r.ReplayedPhases)
	}
}

// TestCheckpointWriteCost: one 1 MB checkpoint on one node charges 1 ms of
// transfer plus the latency, and its bytes, to the report.
func TestCheckpointWriteCost(t *testing.T) {
	cfg := testConfig(1)
	cfg.Ckpt = ckpt.Config{Interval: 1}
	c, _ := New(cfg)
	rec := c.Recovery(
		func() ([]byte, error) { return make([]byte, 1e6), nil },
		func([]byte) error { return nil },
	)
	if err := rec.Run(func(int) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	size := len(rec.latest.Data)
	if size < 1e6 {
		t.Fatalf("checkpoint blob is %d bytes, want the 1 MB engine state and the inbox", size)
	}
	r := c.Report()
	want := float64(size)/ckpt.Bandwidth + ckpt.Latency
	if math.Abs(r.CheckpointSeconds-want) > 1e-9 || r.CheckpointBytes != int64(size) || r.Checkpoints != 1 {
		t.Errorf("checkpoint charged %v s for %d bytes over %d writes, want %v s for %d over 1",
			r.CheckpointSeconds, r.CheckpointBytes, r.Checkpoints, want, size)
	}
}

func TestRecoveryRestoresInbox(t *testing.T) {
	// The inbox at a step boundary is part of the checkpoint: a crash after
	// the exchange must replay with the checkpointed in-flight messages.
	cfg := testConfig(2)
	cfg.Fault = (&fault.Plan{}).Add(fault.Event{Kind: fault.Crash, Phase: 2, Node: 0})
	cfg.Ckpt = ckpt.Config{Interval: 1}
	c, _ := New(cfg)
	var seen []string
	step := func(i int) (bool, error) {
		// Consume last phase's delivery, then send the next value.
		for _, p := range c.Recv(1) {
			seen = append(seen, string(p))
		}
		err := c.RunPhase(func(n int) error {
			if n == 0 {
				c.Send(0, 1, []byte{'a' + byte(i)})
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		return i >= 3, nil
	}
	snapshot := func() ([]byte, error) {
		var out []byte
		for _, s := range seen {
			out = codec.AppendSection(out, []byte(s))
		}
		return out, nil
	}
	restore := func(data []byte) error {
		seen = nil
		for len(data) > 0 {
			sec, rest, err := codec.Section(data)
			if err != nil {
				return err
			}
			seen = append(seen, string(sec))
			data = rest
		}
		return nil
	}
	if err := c.Recovery(snapshot, restore).Run(step); err != nil {
		t.Fatal(err)
	}
	// Step 3's send is never consumed (the loop ends), so the fault-free
	// sequence is a, b, c — and only an inbox-carrying checkpoint replays
	// "b" correctly after the crash in step 2.
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("seen = %v, want %v (inbox not restored?)", seen, want)
	}
}

func TestInboxSnapshotRoundTrip(t *testing.T) {
	c, _ := New(testConfig(3))
	_ = c.RunPhase(func(n int) error {
		if n == 0 {
			c.Send(0, 1, []byte("one"))
			c.Send(0, 2, []byte("two"))
		}
		if n == 2 {
			c.Send(2, 1, []byte("three"))
		}
		return nil
	})
	blob := c.snapshotInbox()
	want := [][]string{nil, {"one", "three"}, {"two"}}
	// Clobber then restore.
	c.inbox = make([][][]byte, 3)
	if err := c.restoreInbox(blob); err != nil {
		t.Fatal(err)
	}
	for n, wantMsgs := range want {
		got := c.Recv(n)
		if len(got) != len(wantMsgs) {
			t.Fatalf("node %d: %q, want %q", n, got, wantMsgs)
		}
		for i := range wantMsgs {
			if string(got[i]) != wantMsgs[i] {
				t.Errorf("node %d payload %d = %q, want %q", n, i, got[i], wantMsgs[i])
			}
		}
	}
	// Restored payloads must not alias the blob (the store retains the
	// blob; engines may mutate delivered payloads in place).
	for i := range blob {
		blob[i] = 0xee
	}
	if got := string(c.Recv(1)[0]); got != "one" {
		t.Errorf("restored payload aliases the checkpoint blob: %q", got)
	}
	// Truncated blobs error (or restore a shorter prefix), never panic.
	for cut := 0; cut < len(blob); cut++ {
		cc, _ := New(testConfig(3))
		_ = cc.restoreInbox(blob[:cut])
	}
	other, _ := New(testConfig(2))
	if err := other.restoreInbox(c.snapshotInbox()); err == nil {
		t.Error("restoreInbox accepted a snapshot for the wrong node count")
	}
}

func TestCheckpointBlobLayout(t *testing.T) {
	cfg := testConfig(2)
	cfg.Ckpt = ckpt.Config{Interval: 1}
	c, _ := New(cfg)
	rec := c.Recovery(
		func() ([]byte, error) { return []byte("engine-state"), nil },
		func([]byte) error { return nil },
	)
	_ = rec.Run(func(i int) (bool, error) { return true, nil })
	ck := rec.latest
	if ck == nil {
		t.Fatal("no checkpoint written")
	}
	engine, rest, err := codec.Section(ck.Data)
	if err != nil || !bytes.Equal(engine, []byte("engine-state")) {
		t.Errorf("engine section = %q, %v", engine, err)
	}
	if _, _, err := codec.Section(rest); err != nil {
		t.Errorf("inbox section: %v", err)
	}
}
