package native

import (
	"errors"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/fault"
)

// faultConfig builds a cluster config with a parsed fault plan and
// checkpointing. Plans are single-use (events are consumed when they
// fire), so each run parses a fresh one.
func faultConfig(t *testing.T, nodes int, spec string, interval int) (*cluster.Config, *fault.Plan) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &cluster.Config{
		Nodes: nodes,
		Fault: plan,
		Ckpt:  ckpt.Config{Interval: interval},
	}, plan
}

// TestPageRankClusterRecovery is the end-to-end determinism check from
// DESIGN.md §10: a run that loses a node mid-computation and replays
// from the last checkpoint must produce bit-identical ranks to the
// fault-free run, and the recovery must be visible in the report.
func TestPageRankClusterRecovery(t *testing.T) {
	g := testGraphDirected(t)
	base, err := New().PageRank(g, core.PageRankOptions{Iterations: 6,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
	if err != nil {
		t.Fatal(err)
	}

	cfg, plan := faultConfig(t, 4, "crash@5:n2", 2)
	res, err := New().PageRank(g, core.PageRankOptions{Iterations: 6,
		Exec: core.Exec{Cluster: cfg}})
	if err != nil {
		t.Fatal(err)
	}

	for i := range base.Ranks {
		if base.Ranks[i] != res.Ranks[i] {
			t.Fatalf("rank[%d] = %v after recovery, want %v (bit-identical)", i, res.Ranks[i], base.Ranks[i])
		}
	}
	if len(plan.Fired()) != 1 {
		t.Errorf("fired events = %v, want exactly the crash", plan.Fired())
	}
	rep := res.Stats.Report
	if rep.Recoveries != 1 || rep.FailedPhases != 1 {
		t.Errorf("Recoveries = %d, FailedPhases = %d, want 1/1", rep.Recoveries, rep.FailedPhases)
	}
	if rep.Checkpoints == 0 || rep.CheckpointBytes == 0 || rep.CheckpointSeconds <= 0 {
		t.Errorf("checkpoint accounting missing: %d ckpts, %d bytes, %v sec",
			rep.Checkpoints, rep.CheckpointBytes, rep.CheckpointSeconds)
	}
	if rep.RecoverySeconds <= 0 || rep.ReplayedPhases == 0 {
		t.Errorf("recovery accounting missing: %v sec, %d replayed", rep.RecoverySeconds, rep.ReplayedPhases)
	}
	if rep.SimulatedSeconds <= base.Stats.Report.SimulatedSeconds {
		t.Errorf("faulty run simulated %vs, should exceed fault-free %vs",
			rep.SimulatedSeconds, base.Stats.Report.SimulatedSeconds)
	}
}

// TestBFSClusterRecovery checks the same contract for BFS, whose
// inter-phase state includes in-flight frontier candidates in the
// cluster inbox.
func TestBFSClusterRecovery(t *testing.T) {
	g := testGraphUndirected(t)
	base, err := New().BFS(g, core.BFSOptions{Source: 3,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
	if err != nil {
		t.Fatal(err)
	}

	cfg, plan := faultConfig(t, 3, "crash@2:n0", 1)
	res, err := New().BFS(g, core.BFSOptions{Source: 3, Exec: core.Exec{Cluster: cfg}})
	if err != nil {
		t.Fatal(err)
	}

	for i := range base.Distances {
		if base.Distances[i] != res.Distances[i] {
			t.Fatalf("dist[%d] = %d after recovery, want %d", i, res.Distances[i], base.Distances[i])
		}
	}
	if res.Stats.Iterations != base.Stats.Iterations {
		t.Errorf("levels = %d after recovery, want %d", res.Stats.Iterations, base.Stats.Iterations)
	}
	if len(plan.Fired()) != 1 {
		t.Errorf("fired events = %v, want exactly the crash", plan.Fired())
	}
	if rep := res.Stats.Report; rep.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", rep.Recoveries)
	}
}

// TestClusterRecoveryTimelineDeterministic runs the same seeded plan
// twice and asserts the fired-event timeline and the recovery-side
// accounting are identical. (Total simulated time is excluded: compute
// cost is measured from real wall time, so it jitters between runs;
// the fault/checkpoint/recovery charges are pure functions of the
// plan, the data sizes, and the cost model.)
func TestClusterRecoveryTimelineDeterministic(t *testing.T) {
	g := testGraphDirected(t)
	run := func() ([]fault.Event, *core.RunStats) {
		plan := fault.Seeded(99, fault.SeedConfig{Phases: 12, Nodes: 4, Crashes: 2})
		res, err := New().PageRank(g, core.PageRankOptions{Iterations: 6,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4,
				Fault: plan, Ckpt: ckpt.Config{Interval: 1}}}})
		if err != nil {
			t.Fatal(err)
		}
		return plan.Fired(), &res.Stats
	}
	fired1, stats1 := run()
	fired2, stats2 := run()
	if len(fired1) != len(fired2) {
		t.Fatalf("timelines differ in length: %v vs %v", fired1, fired2)
	}
	for i := range fired1 {
		if fired1[i] != fired2[i] {
			t.Errorf("event %d: %v vs %v", i, fired1[i], fired2[i])
		}
	}
	// RecoverySeconds also carries the failed phase's partial compute
	// (wall-measured), so only the checkpoint charge is exactly equal.
	r1, r2 := stats1.Report, stats2.Report
	if r1.CheckpointSeconds != r2.CheckpointSeconds || r1.CheckpointBytes != r2.CheckpointBytes {
		t.Errorf("checkpoint charges differ: %v/%d vs %v/%d",
			r1.CheckpointSeconds, r1.CheckpointBytes, r2.CheckpointSeconds, r2.CheckpointBytes)
	}
	if r1.ReplayedPhases != r2.ReplayedPhases || r1.Recoveries != r2.Recoveries ||
		r1.FailedPhases != r2.FailedPhases {
		t.Errorf("recovery accounting differs: %+v vs %+v", r1, r2)
	}
	if len(fired1) != 2 {
		t.Errorf("fired %d events, seeded plan has 2 crashes", len(fired1))
	}
}

// TestClusterCrashWithoutCheckpointFails: with checkpointing disabled
// there is nothing to recover from, so the injected fault surfaces.
func TestClusterCrashWithoutCheckpointFails(t *testing.T) {
	g := testGraphDirected(t)
	plan, err := fault.ParsePlan("crash@3:n1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New().PageRank(g, core.PageRankOptions{Iterations: 6,
		Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4, Fault: plan}}})
	if err == nil {
		t.Fatal("crash without checkpointing should fail the run")
	}
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Errorf("error %v should classify as injected", err)
	}
}
