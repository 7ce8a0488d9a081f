package socialite

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
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

// pin is a run's output digest and, on a cluster, each node's traffic.
type pin struct {
	out     string
	traffic []string
}

// cfWords lists a CF result's factor and RMSE bits, in the order digest
// hashes them.
func cfWords(res *core.CFResult) []uint64 {
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
	return w
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
		got["cf"] = pin{digest(cfWords(res)...), clusterTraffic(tr, nodes)}
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

// TestCFOverflowPinned pins SociaLite GD CF under a step so large that the
// factors overflow: from the second iteration on, gradient emissions are
// NaN, the evaluator drops each one and folds the rest of its row, a key
// with no surviving emission keeps its factor, and an apply that would
// store a NaN keeps the old factor. The factors and RMSE trajectory are
// pinned bit for bit at 1 node and at 4 nodes, and the 4-node run's
// per-node traffic with them.
func TestCFOverflowPinned(t *testing.T) {
	const nodes = 4
	want := map[int]pin{
		1:     {"a6b1190dafc26f24", nil},
		nodes: {"a6b1190dafc26f24", []string{"20736/24", "21312/24", "20592/24", "19008/24"}},
	}
	for _, n := range []int{1, nodes} {
		ex := core.Exec{}
		var tr *trace.Tracer
		if n > 1 {
			tr = trace.New()
			ex = core.Exec{Cluster: &cluster.Config{Nodes: n}, Trace: tr}
		}
		res, err := New().CollabFilter(fixtureRatings(t), core.CFOptions{K: 4, Iterations: 4, Seed: 7, LearningRate: 1e30, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		got := pin{out: digest(cfWords(res)...)}
		if tr != nil {
			got.traffic = clusterTraffic(tr, n)
		}
		w := want[n]
		if got.out != w.out || fmt.Sprint(got.traffic) != fmt.Sprint(w.traffic) {
			t.Errorf("%d node(s): digest %s traffic %q, want %s %q", n, got.out, got.traffic, w.out, w.traffic)
		}
	}
}

// TestCFNaNRatingsPinned pins SociaLite GD CF over the fixture's ratings
// with user 0's ratings and every fifth other rating NaN: each NaN rating
// makes both of its gradient emissions NaN, the evaluator drops them and
// folds the rest of their rows, and user 0, with no surviving emission,
// keeps its initial factor. Pinned bit for bit at 1 node and at 4 nodes.
func TestCFNaNRatingsPinned(t *testing.T) {
	const nodes = 4
	r := fixtureRatings(t)
	var ratings []graph.WeightedEdge
	i := 0
	for u := uint32(0); u < r.NumUsers; u++ {
		w := r.ByUser.EdgeWeights(u)
		for j, v := range r.ByUser.Neighbors(u) {
			e := graph.WeightedEdge{Src: u, Dst: v, Weight: w[j]}
			if u == 0 || i%5 == 0 {
				e.Weight = float32(math.NaN())
			}
			ratings = append(ratings, e)
			i++
		}
	}
	nanR, err := graph.NewBipartite(r.NumUsers, r.NumItems, ratings)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]pin{
		1:     {"97f5753cf987c27b", nil},
		nodes: {"97f5753cf987c27b", []string{"15552/18", "15984/18", "15444/18", "14256/18"}},
	}
	for _, n := range []int{1, nodes} {
		ex := core.Exec{}
		var tr *trace.Tracer
		if n > 1 {
			tr = trace.New()
			ex = core.Exec{Cluster: &cluster.Config{Nodes: n}, Trace: tr}
		}
		res, err := New().CollabFilter(nanR, core.CFOptions{K: 4, Iterations: 3, Seed: 7, Exec: ex})
		if err != nil {
			t.Fatal(err)
		}
		init := core.InitFactors(r.NumUsers, 4, 7)
		for d := 0; d < 4; d++ {
			if res.UserFactors[d] != init[d] {
				t.Fatalf("%d node(s): user 0 factor %v moved from its initial %v", n, res.UserFactors[:4], init[:4])
			}
		}
		got := pin{out: digest(cfWords(res)...)}
		if tr != nil {
			got.traffic = clusterTraffic(tr, n)
		}
		w := want[n]
		if got.out != w.out || fmt.Sprint(got.traffic) != fmt.Sprint(w.traffic) {
			t.Errorf("%d node(s): digest %s traffic %q, want %s %q", n, got.out, got.traffic, w.out, w.traffic)
		}
	}
}
