package graphlab

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

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

// sweepChanged lists the changed argument of every virtual graphlab.sweep
// span, in round order.
func sweepChanged(tr *trace.Tracer) []int {
	var out []int
	for _, ev := range tr.Events() {
		if ev.Cat == "graphlab.sweep" && ev.Pid == trace.PidEngine {
			out = append(out, int(ev.Args["changed"]))
		}
	}
	return out
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

// TestGASClusterRunsPinned pins GraphLab's two GAS cluster paths on 4
// nodes: the outputs bit for bit (by digest), every node's modeled
// traffic, the round count and the per-round changed counts of the
// virtual sweep spans. A change to how a node runs its rounds must move
// none of them.
func TestGASClusterRunsPinned(t *testing.T) {
	const nodes = 4
	exec := func() (core.Exec, *trace.Tracer) {
		tr := trace.New()
		return core.Exec{Cluster: &cluster.Config{Nodes: nodes}, Trace: tr}, tr
	}
	type pin struct {
		out     string
		traffic []string
		rounds  int
		changed []int
	}
	want := map[string]pin{
		"pagerank": {"9f9d99600981fe08", []string{"4040/20", "6740/20", "5780/20", "5780/20"}, 5, []int{256, 256, 256, 256, 256}},
		"bfs":      {"43d5e0bcaba0985e", []string{"964/11", "796/14", "1044/11", "1092/11"}, 5, []int{0, 1, 130, 86, 0}},
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
		got["pagerank"] = pin{digest(w...), clusterTraffic(tr, nodes), res.Stats.Iterations, sweepChanged(tr)}
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
		got["bfs"] = pin{digest(w...), clusterTraffic(tr, nodes), res.Stats.Iterations, sweepChanged(tr)}
	}

	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: unpinned: %#v", name, g)
			continue
		}
		if g.out != w.out {
			t.Errorf("%s: output digest %s, want %s", name, g.out, w.out)
		}
		if fmt.Sprint(g.traffic) != fmt.Sprint(w.traffic) {
			t.Errorf("%s: per-node bytes/messages %q, want %q", name, g.traffic, w.traffic)
		}
		if g.rounds != w.rounds {
			t.Errorf("%s: rounds %d, want %d", name, g.rounds, w.rounds)
		}
		if fmt.Sprint(g.changed) != fmt.Sprint(w.changed) {
			t.Errorf("%s: changed per sweep %v, want %v", name, g.changed, w.changed)
		}
	}
}
