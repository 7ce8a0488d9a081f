package native

import (
	"math"
	"testing"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/par"
)

// These tests pin the behaviours behind the paper's §6.1 optimization
// claims, beyond the correctness checks in native_test.go.

func TestBFSCompressionReducesTraffic(t *testing.T) {
	g := testGraphUndirected(t)
	run := func(compress bool) int64 {
		tn := DefaultTuning()
		tn.Compression = compress
		res, err := NewTuned(tn).BFS(g, core.BFSOptions{Source: 3,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Report.BytesSent
	}
	raw, compressed := run(false), run(true)
	if compressed >= raw {
		t.Errorf("BFS compression did not reduce traffic: %d vs %d", compressed, raw)
	}
	// Paper §6.1.1: BFS benefits ≈3.2× net from compression.
	if ratio := float64(raw) / float64(compressed); ratio < 1.5 {
		t.Errorf("BFS compression ratio %.2f below expected ≥1.5", ratio)
	}
}

func TestTriangleCompressionReducesTraffic(t *testing.T) {
	g := testGraphAcyclic(t)
	run := func(compress bool) int64 {
		tn := DefaultTuning()
		tn.Compression = compress
		res, err := NewTuned(tn).TriangleCount(g, core.TriangleOptions{
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Report.BytesSent
	}
	raw, compressed := run(false), run(true)
	if compressed >= raw {
		t.Errorf("TC compression did not reduce traffic: %d vs %d", compressed, raw)
	}
}

// TestOverlapReducesSimulatedTime checks the §6.1.1 cost model within
// each run, since two runs' simulated times rest on two measured computes:
// without overlap a phase costs compute + network, so the run's simulated
// time is the sum of its compute and network totals; with overlap a phase
// costs the larger of the two, so the run's time falls strictly below
// that sum.
func TestOverlapReducesSimulatedTime(t *testing.T) {
	g := testGraphDirected(t)
	run := func(overlap bool) cluster.Report {
		tn := DefaultTuning()
		tn.Overlap = overlap
		res, err := NewTuned(tn).PageRank(g, core.PageRankOptions{Iterations: 6,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4,
				// A slow link makes the network term visible.
				Comm: cluster.CommLayer{Name: "slow", Bandwidth: 1e6, Latency: 1e-5}}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Report
	}
	seq, ovl := run(false), run(true)
	if sum := seq.ComputeSeconds + seq.NetworkSeconds; math.Abs(seq.SimulatedSeconds-sum) > 1e-12*sum {
		t.Errorf("sequential: simulated %vs, compute %vs + network %vs = %vs", seq.SimulatedSeconds, seq.ComputeSeconds, seq.NetworkSeconds, sum)
	}
	if ovl.ComputeSeconds <= 0 || ovl.NetworkSeconds <= 0 {
		t.Fatalf("overlap: compute %vs, network %vs: both terms must be visible", ovl.ComputeSeconds, ovl.NetworkSeconds)
	}
	if sum := ovl.ComputeSeconds + ovl.NetworkSeconds; ovl.SimulatedSeconds >= sum {
		t.Errorf("overlap: simulated %vs not below compute %vs + network %vs = %vs", ovl.SimulatedSeconds, ovl.ComputeSeconds, ovl.NetworkSeconds, sum)
	}
}

func TestPRIdPayloadCachedAcrossIterations(t *testing.T) {
	// The compressed id block is encoded once; traffic for N iterations
	// must be ≈ N × (ids + values), not N × (re-encoded everything). We
	// check linearity: doubling iterations ≈ doubles bytes (within the
	// final-iteration skip).
	g := testGraphDirected(t)
	run := func(iters int) int64 {
		res, err := New().PageRank(g, core.PageRankOptions{Iterations: iters,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 4}}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Report.BytesSent
	}
	b4, b7 := run(4), run(7)
	// 4 iterations send 3 rounds of messages; 7 send 6.
	perRound4 := float64(b4) / 3
	perRound7 := float64(b7) / 6
	if perRound7 > perRound4*1.01 || perRound7 < perRound4*0.99 {
		t.Errorf("per-round traffic not stable: %.1f vs %.1f", perRound4, perRound7)
	}
}

func TestTuningStagesAllCorrect(t *testing.T) {
	// Every point in the 4-knob tuning lattice must stay correct — the
	// ablation sweeps through these configurations.
	g := testGraphDirected(t)
	ug := testGraphUndirected(t)
	wantPR := core.RefPageRank(g, core.PageRankOptions{Iterations: 4})
	wantBFS := core.RefBFS(ug, 3)
	for mask := 0; mask < 16; mask++ {
		tn := Tuning{
			ContribCaching: mask&1 != 0,
			Compression:    mask&2 != 0,
			Overlap:        mask&4 != 0,
			Bitvector:      mask&8 != 0,
		}
		e := NewTuned(tn)
		pr, err := e.PageRank(g, core.PageRankOptions{Iterations: 4,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
		if err != nil {
			t.Fatalf("tuning %+v: %v", tn, err)
		}
		tol := 1e-9
		if tn.Compression {
			tol = 1e-4
		}
		if d := core.ComparePageRank(wantPR, pr.Ranks); d > tol {
			t.Errorf("tuning %+v: PR diff %v", tn, d)
		}
		bfs, err := e.BFS(ug, core.BFSOptions{Source: 3,
			Exec: core.Exec{Cluster: &cluster.Config{Nodes: 3}}})
		if err != nil {
			t.Fatalf("tuning %+v: %v", tn, err)
		}
		if !core.EqualDistances(wantBFS, bfs.Distances) {
			t.Errorf("tuning %+v: BFS differs", tn)
		}
	}
}

func TestPageRankEarlyConvergence(t *testing.T) {
	g := testGraphDirected(t)
	pool := par.NewPool(0)
	defer pool.Close()
	in, outDeg := backend.FromCSR(g.Transpose()), g.OutDegrees()
	n := int(g.NumVertices)
	// With a loose tolerance the run must stop early…
	ranks, sweeps := PageRankInto(pool, in, outDeg, 0.3, 1e-3, 200, 0, nil, make([]float64, n), make([]float64, n), make([]float64, n))
	if sweeps >= 200 {
		t.Errorf("no early convergence: ran %d sweeps", sweeps)
	}
	// …and the result must still be close to the fully converged ranks.
	full, _ := PageRankInto(pool, in, outDeg, 0.3, 0, 200, 0, nil, make([]float64, n), nil, make([]float64, n))
	if d := core.ComparePageRank(full, ranks); d > 1e-2 {
		t.Errorf("early-converged ranks off by %v", d)
	}
}
