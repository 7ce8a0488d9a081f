package giraph

import (
	"strings"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/fault"
)

// TestPageRankSuperstepRecovery injects a crash mid-run with superstep
// checkpointing enabled and requires bit-identical ranks to the
// fault-free run — the Pregel determinism contract: a replayed
// superstep sees exactly the values, active set, and pending messages
// the checkpoint captured.
func TestPageRankSuperstepRecovery(t *testing.T) {
	g := fixtureDirected(t)
	base, err := New().PageRank(g, core.PageRankOptions{Iterations: 4,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := fault.ParsePlan("crash@3:n1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 4,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4,
			Fault: plan, Ckpt: ckpt.Config{Interval: 2}}}})
	if err != nil {
		t.Fatal(err)
	}

	for i := range base.Ranks {
		if base.Ranks[i] != res.Ranks[i] {
			t.Fatalf("rank[%d] = %v after recovery, want %v (bit-identical)", i, res.Ranks[i], base.Ranks[i])
		}
	}
	if len(plan.Fired()) != 1 {
		t.Errorf("fired = %v, want exactly the crash", plan.Fired())
	}
	rep := res.Stats.Report
	if rep.Recoveries != 1 || rep.Checkpoints == 0 || rep.ReplayedPhases == 0 {
		t.Errorf("recovery accounting: %d recoveries, %d checkpoints, %d replayed",
			rep.Recoveries, rep.Checkpoints, rep.ReplayedPhases)
	}
	if rep.CheckpointSeconds <= 0 || rep.RecoverySeconds <= 0 {
		t.Errorf("checkpoint/recovery time not charged: %v / %v",
			rep.CheckpointSeconds, rep.RecoverySeconds)
	}
}

// TestBFSSuperstepRecovery does the same for BFS, whose pending
// messages are int32 distances serialized by Int32Codec.
func TestBFSSuperstepRecovery(t *testing.T) {
	g := fixtureUndirected(t)
	base, err := New().BFS(g, core.BFSOptions{Source: 7,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := fault.ParsePlan("crash@2:n0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().BFS(g, core.BFSOptions{Source: 7,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3,
			Fault: plan, Ckpt: ckpt.Config{Interval: 1}}}})
	if err != nil {
		t.Fatal(err)
	}

	if !core.EqualDistances(base.Distances, res.Distances) {
		t.Error("distances after recovery differ from fault-free run")
	}
	if len(plan.Fired()) != 1 {
		t.Errorf("fired = %v, want exactly the crash", plan.Fired())
	}
	if rep := res.Stats.Report; rep.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rep.Recoveries)
	}
}

// TestCheckpointNeedsCodec: jobs without EncodeValue/DecodeValue
// (triangle counting keeps per-vertex adjacency state with no codec)
// must refuse checkpointing up front rather than fail at save time.
func TestCheckpointNeedsCodec(t *testing.T) {
	g := fixtureAcyclic(t)
	_, err := New().TriangleCount(g, core.TriangleOptions{
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4,
			Ckpt: ckpt.Config{Interval: 2}}}})
	if err == nil {
		t.Fatal("triangle count with checkpointing should fail: no value codec")
	}
	if !strings.Contains(err.Error(), "EncodeValue") {
		t.Errorf("error %q should name the missing codec hooks", err)
	}
}

// TestSnapshotRoundTrip exercises snapshotState/restoreState directly:
// counter, halted bitset, values, and pending messages all survive.
func TestSnapshotRoundTrip(t *testing.T) {
	enc, dec := Float64Codec()
	job := &Job{EncodeValue: enc, DecodeValue: dec}
	rt := &runtime{halted: newBvec(5)}
	rt.counter = 41
	rt.halted.Set(2, true)
	rt.halted.Set(4, false)
	values := []any{0.5, 1.5, 2.5, 3.5, 4.5}
	inbox := [][]any{{0.25}, nil, {1.0, 2.0, 3.0}, nil, {9.0}}
	rt.inbox = newInbox(5)
	for v, msgs := range inbox {
		rt.inbox.msgs = append(rt.inbox.msgs, msgs...)
		rt.inbox.offs[v+1] = len(rt.inbox.msgs)
	}

	blob, err := snapshotState(job, rt, values)
	if err != nil {
		t.Fatal(err)
	}

	// Clobber the live state, then restore into it.
	rt2 := &runtime{halted: newBvec(5)}
	got := make([]any, 5)
	if err := restoreState(job, rt2, got, blob); err != nil {
		t.Fatal(err)
	}
	if rt2.counter != 41 {
		t.Errorf("counter = %d, want 41", rt2.counter)
	}
	if !rt2.halted.Get(2) || !rt2.halted.Get(4) || rt2.halted.Get(0) {
		t.Error("halted bitset not restored")
	}
	for i, v := range values {
		if got[i] != v {
			t.Errorf("value[%d] = %v, want %v", i, got[i], v)
		}
	}
	for v := range inbox {
		gotMsgs := rt2.inbox.at(uint32(v))
		if len(gotMsgs) != len(inbox[v]) {
			t.Fatalf("inbox[%d] has %d messages, want %d", v, len(gotMsgs), len(inbox[v]))
		}
		for j := range inbox[v] {
			if gotMsgs[j] != inbox[v][j] {
				t.Errorf("inbox[%d][%d] = %v, want %v", v, j, gotMsgs[j], inbox[v][j])
			}
		}
	}

	// Truncated blobs must error, never panic.
	for cut := 0; cut < len(blob); cut += 7 {
		if err := restoreState(job, &runtime{halted: newBvec(5)}, make([]any, 5), blob[:cut]); err == nil {
			t.Fatalf("restore of %d-byte prefix should fail", cut)
		}
	}
}
