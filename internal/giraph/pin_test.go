package giraph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/trace"
)

// clusterTraffic returns each node's bytes and messages summed over the
// run's phases, read off the per-node phase spans of the cluster's tracer.
func clusterTraffic(tr *trace.Tracer, nodes int) []string {
	bytes := make([]int64, nodes)
	msgs := make([]int64, nodes)
	for _, ev := range tr.Events() {
		if ev.Cat != "cluster.phase" {
			continue
		}
		n := ev.Pid - trace.PidNodeBase
		bytes[n] += int64(ev.Args["bytes"])
		msgs[n] += int64(ev.Args["messages"])
	}
	out := make([]string, nodes)
	for n := range out {
		out[n] = fmt.Sprintf("%d/%d", bytes[n], msgs[n])
	}
	return out
}

// peakBuffered is the run's PeakBufferedBytes as its superstep spans report
// it: the largest per-superstep buffered_bytes.
func peakBuffered(tr *trace.Tracer) int64 {
	var peak int64
	for _, ev := range tr.Events() {
		if ev.Cat == "giraph.superstep" {
			peak = max(peak, int64(ev.Args["buffered_bytes"]))
		}
	}
	return peak
}

// digest hashes a run's output words.
func digest(words ...uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestStockRuntimePinned pins the stock superstep runtime: on 4 nodes the
// outputs of the four algorithms bit for bit (by digest), every node's
// modeled traffic and the modeled memory footprint; the modeled peak
// message buffer of TC and CF, monolithic and in 100 phases; and the
// bytes of every checkpoint of a PageRank run that checkpoints each
// superstep (the pending inbox is encoded message by message, so this pins
// delivery order too). A change to how the runtime stages, delivers or
// tallies messages must move none of them.
func TestStockRuntimePinned(t *testing.T) {
	const nodes = 4
	exec := func() (core.Exec, *trace.Tracer) {
		tr := trace.New()
		return core.Exec{Cluster: &cluster.Config{Nodes: nodes}, Trace: tr}, tr
	}
	type pin struct {
		out     string
		traffic []string
		mem     int64
	}
	want := map[string]pin{
		"pagerank": {"ac28810961317316", []string{"40556/21", "39576/21", "40836/21", "40416/21"}, 28380},
		"bfs":      {"78506c8f0b36e333", []string{"11880/21", "11832/18", "12240/12", "10848/15"}, 31309},
		"tc":       {"1145", []string{"38260/197", "31236/206", "24760/218", "2624/164"}, 14481},
		"cf":       {"229dd81edba810de", []string{"84160/568", "84280/604", "100240/298", "68200/289"}, 21131},
	}
	got := map[string]pin{}
	e := New()
	{
		ex, tr := exec()
		res, err := e.PageRank(fixtureDirected(t), core.PageRankOptions{Iterations: 5, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		var w []uint64
		for _, r := range res.Ranks {
			w = append(w, math.Float64bits(r))
		}
		got["pagerank"] = pin{digest(w...), clusterTraffic(tr, nodes), res.Stats.Report.MemoryFootprintBytes}
	}
	{
		ex, tr := exec()
		res, err := e.BFS(fixtureUndirected(t), core.BFSOptions{Source: 0, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		var w []uint64
		for _, d := range res.Distances {
			w = append(w, uint64(uint32(d)))
		}
		got["bfs"] = pin{digest(w...), clusterTraffic(tr, nodes), res.Stats.Report.MemoryFootprintBytes}
	}
	{
		ex, tr := exec()
		res, err := e.TriangleCount(fixtureAcyclic(t), core.TriangleOptions{Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		got["tc"] = pin{fmt.Sprint(res.Count), clusterTraffic(tr, nodes), res.Stats.Report.MemoryFootprintBytes}
	}
	{
		ex, tr := exec()
		res, err := e.CollabFilter(fixtureRatings(t), core.CFOptions{K: 4, Iterations: 3, Seed: 7, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		var w []uint64
		for _, f := range res.UserFactors {
			w = append(w, uint64(math.Float32bits(f)))
		}
		for _, f := range res.ItemFactors {
			w = append(w, uint64(math.Float32bits(f)))
		}
		for _, r := range res.RMSE {
			w = append(w, math.Float64bits(r))
		}
		got["cf"] = pin{digest(w...), clusterTraffic(tr, nodes), res.Stats.Report.MemoryFootprintBytes}
	}
	for name, g := range got {
		w := want[name]
		if g.out != w.out {
			t.Errorf("%s: output digest %s, want %s", name, g.out, w.out)
		}
		if fmt.Sprint(g.traffic) != fmt.Sprint(w.traffic) {
			t.Errorf("%s: per-node bytes/messages %q, want %q", name, g.traffic, w.traffic)
		}
		if g.mem != w.mem {
			t.Errorf("%s: memory footprint %d, want %d", name, g.mem, w.mem)
		}
	}

	// Modeled peak message buffer, single node, monolithic and phased.
	wantPeak := map[string]int64{
		"tc/1": 163328, "tc/100": 11204, "cf/1": 180744, "cf/100": 36108,
	}
	for _, split := range []int{1, 100} {
		e := &Engine{splitSupersteps: split}
		tr := trace.New()
		if _, err := e.TriangleCount(fixtureAcyclic(t), core.TriangleOptions{Exec: core.Exec{Trace: tr}}); err != nil {
			t.Fatal(err)
		}
		if got, key := peakBuffered(tr), fmt.Sprintf("tc/%d", split); got != wantPeak[key] {
			t.Errorf("%s: PeakBufferedBytes %d, want %d", key, got, wantPeak[key])
		}
		tr = trace.New()
		if _, err := e.CollabFilter(fixtureRatings(t), core.CFOptions{K: 4, Iterations: 3, Seed: 7,
			SkipRMSETrajectory: true, Exec: core.Exec{Trace: tr}}); err != nil {
			t.Fatal(err)
		}
		if got, key := peakBuffered(tr), fmt.Sprintf("cf/%d", split); got != wantPeak[key] {
			t.Errorf("%s: PeakBufferedBytes %d, want %d", key, got, wantPeak[key])
		}
	}

	// Checkpoint bytes of a PageRank run that checkpoints every superstep.
	// A snapshot is built by appending to one buffer, so the buffer the
	// last EncodeValue call of a snapshot returns holds all of it but the
	// trailing zero message counts, which the vertex count fixes.
	c, err := cluster.New(cluster.Config{Nodes: nodes, Comm: cluster.Netty(), WorkersPerNode: workersPerNode,
		Ckpt: ckpt.Config{Interval: 1}})
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Graph:         fixtureDirected(t),
		Init:          func(uint32) any { return float64(1) },
		MaxSupersteps: 6,
		MessageBytes:  func(any) int { return 8 },
		Cluster:       c,
	}
	job.Compute = prCompute(job, 0.3)
	enc, dec := Float64Codec()
	var blobs, cur []byte
	snapshots := 0
	job.EncodeValue = func(dst []byte, v any) ([]byte, error) {
		if len(dst) < len(cur) {
			blobs, snapshots = append(blobs, cur...), snapshots+1
		}
		var err error
		cur, err = enc(dst, v)
		return cur, err
	}
	job.DecodeValue = dec
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	blobs, snapshots = append(blobs, cur...), snapshots+1
	sum := sha256.Sum256(blobs)
	const wantCkpt = "7/206c267df5d04cd1"
	if gotCkpt := fmt.Sprintf("%d/%x", snapshots, sum[:8]); gotCkpt != wantCkpt {
		t.Errorf("checkpoints %s, want %s", gotCkpt, wantCkpt)
	}
}
