package socialite

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

// TestClusterRunsPinned pins the four simulated-cluster paths on 4 nodes:
// the outputs bit for bit (by digest) and every node's modeled traffic.
// A change to where a node's evaluation runs must move neither.
func TestClusterRunsPinned(t *testing.T) {
	const nodes = 4
	exec := func() (core.Exec, *trace.Tracer) {
		tr := trace.New()
		return core.Exec{Cluster: &cluster.Config{Nodes: nodes}, Trace: tr}, tr
	}
	type pin struct {
		out     string
		traffic []string
	}
	want := map[string]pin{
		"pagerank": {"54d9264d36195f3f", []string{"16200/15", "16920/15", "16980/15", "16620/15"}},
		"bfs":      {"3edec3c4311d5a74", []string{"6630/18", "5130/15", "5550/18", "5778/18"}},
		"tc":       {"1158", []string{"24888/4", "24064/4", "14616/4", "8/1"}},
		"cf":       {"ddadd85992e3bd9b", []string{"15552/18", "15984/18", "15444/18", "14256/18"}},
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
		got["pagerank"] = pin{digest(w...), clusterTraffic(tr, nodes)}
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
		got["bfs"] = pin{digest(w...), clusterTraffic(tr, nodes)}
	}
	{
		ex, tr := exec()
		res, err := e.TriangleCount(fixtureAcyclic(t), core.TriangleOptions{Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		got["tc"] = pin{fmt.Sprint(res.Count), clusterTraffic(tr, nodes)}
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
		got["cf"] = pin{digest(w...), clusterTraffic(tr, nodes)}
	}

	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: unpinned: out %s traffic %q", name, g.out, g.traffic)
			continue
		}
		if g.out != w.out {
			t.Errorf("%s: output digest %s, want %s", name, g.out, w.out)
		}
		if fmt.Sprint(g.traffic) != fmt.Sprint(w.traffic) {
			t.Errorf("%s: per-node bytes/messages %q, want %q", name, g.traffic, w.traffic)
		}
	}
}
