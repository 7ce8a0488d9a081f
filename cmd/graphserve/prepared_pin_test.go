package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"graphmaze/internal/graph"
)

// preparedDigest hashes what a kernel reads of a prepared graph: its
// offsets and targets, and the two construction records kernels branch on
// (the same digest internal/harness pins the other builders with).
func preparedDigest(g *graph.CSR) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.NumVertices))
	h.Write(b[:])
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, t := range g.Targets {
		binary.LittleEndian.PutUint32(b[:4], t)
		h.Write(b[:4])
	}
	fmt.Fprintf(h, "weighted=%t symmetrized=%t sorted=%t", g.Weighted(), g.Symmetrized(), g.SortedAdjacency())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPreparedInputsPinned pins the built-in graphs loadGraph builds from
// RMAT (the symmetrized "social" and the directed "web" graph, each seeded
// with -seed plus the length of its name) at two (scale, seed) pairs.
func TestPreparedInputsPinned(t *testing.T) {
	got := map[string]string{}
	for _, o := range []serveOpts{{scale: 9, edgef: 8, seed: 42}, {scale: 11, edgef: 16, seed: 7}} {
		for _, bg := range builtinGraphs {
			v, _, err := loadGraph(o, bg.name, bg.symmetric)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d/%d/%d", bg.name, o.scale, o.edgef, o.seed)] = preparedDigest(v.Current().CSR())
		}
	}
	want := map[string]string{
		"social/9/8/42":  "47c1ed4ec9ec6afe",
		"web/9/8/42":     "aaec8b037f7e7598",
		"social/11/16/7": "7b4a45ff747dc662",
		"web/11/16/7":    "5ade1e534d9f4a72",
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
	for k, d := range got {
		if want[k] != d {
			t.Errorf("%s: digest %s, want %s", k, d, want[k])
		}
	}
}
