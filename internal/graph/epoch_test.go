package graph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// buildSorted is a test helper producing a dedup-sorted CSR.
func buildSorted(t *testing.T, n uint32, edges []Edge, opt BuildOptions) *CSR {
	t.Helper()
	opt.Dedup = true
	b := NewBuilder(n)
	b.AddEdges(edges)
	g, err := b.Build(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVersionedRequiresSortedAdjacency(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVersioned(g, DeltaOptions{}); err == nil {
		t.Fatal("unsorted base must be rejected")
	}
	g.SortAdjacency()
	if _, err := NewVersioned(g, DeltaOptions{}); err != nil {
		t.Fatalf("sorted base rejected: %v", err)
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := buildSorted(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	v, err := NewVersioned(g, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, added, st, err := v.ApplyDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 1 {
		t.Fatalf("empty delta must still advance the epoch, got %d", snap.Epoch())
	}
	if len(added) != 0 || st.Added != 0 {
		t.Fatalf("empty delta added edges: %v %+v", added, st)
	}
	if snap.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d != %d", snap.NumEdges(), g.NumEdges())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaDedupAcrossBaseAndDelta(t *testing.T) {
	g := buildSorted(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	v, err := NewVersioned(g, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) duplicates the base; (2,3) is repeated within the delta.
	snap, added, st, err := v.ApplyDelta([]Edge{{0, 1}, {2, 3}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 2 || len(added) != 2 {
		t.Fatalf("want 2 added, got %d (%v)", st.Added, added)
	}
	if st.Duplicates != 2 {
		t.Fatalf("want 2 duplicates, got %d", st.Duplicates)
	}
	csr := snap.CSR()
	if !csr.HasEdge(2, 3) || !csr.HasEdge(0, 3) || !csr.HasEdge(0, 1) {
		t.Fatal("merged epoch missing edges")
	}
	if got := csr.Degree(2); got != 1 {
		t.Fatalf("duplicate within delta not removed: degree(2)=%d", got)
	}
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaSelfLoops(t *testing.T) {
	g := buildSorted(t, 3, []Edge{{0, 1}}, BuildOptions{})
	drop, err := NewVersioned(g, DeltaOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, st, err := drop.ApplyDelta([]Edge{{1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st.SelfLoops != 1 || snap.CSR().HasEdge(1, 1) {
		t.Fatalf("self-loop survived DropSelfLoops: %+v", st)
	}

	keep, err := NewVersioned(buildSorted(t, 3, []Edge{{0, 1}}, BuildOptions{}), DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, st, err = keep.ApplyDelta([]Edge{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.SelfLoops != 0 || !snap.CSR().HasEdge(1, 1) {
		t.Fatal("self-loop must be kept without DropSelfLoops")
	}
}

func TestApplyDeltaSymmetrize(t *testing.T) {
	g := buildSorted(t, 4, []Edge{{0, 1}, {1, 0}}, BuildOptions{})
	v, err := NewVersioned(g, DeltaOptions{Symmetrize: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, added, _, err := v.ApplyDelta([]Edge{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 {
		t.Fatalf("symmetrized delta must add both directions, got %v", added)
	}
	if !snap.CSR().HasEdge(2, 3) || !snap.CSR().HasEdge(3, 2) {
		t.Fatal("missing symmetrized edge")
	}
}

// TestApplyDeltaRejectsMaxVertexID: an endpoint of MaxUint32 would make
// the vertex count id+1 wrap to 0 — on a directed graph that published a
// 1-vertex epoch, on a symmetrized one mergeCSR panicked — and one of
// MaxUint32−1 would make mergeCSR allocate two 2³²-entry offset arrays
// for a one-edge delta. Each is an error on both orientations that
// allocates under 1 MiB, and the current epoch, its arrays and the next
// valid delta are untouched.
func TestApplyDeltaRejectsMaxVertexID(t *testing.T) {
	for _, opts := range []DeltaOptions{{}, {Symmetrize: true, DropSelfLoops: true}} {
		g := buildSorted(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{})
		offsets, targets := slices.Clone(g.Offsets), slices.Clone(g.Targets)
		v, err := NewVersioned(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := v.Current()
		for _, bad := range [][]Edge{{{math.MaxUint32, 0}}, {{1, 3}, {0, math.MaxUint32}}, {{math.MaxUint32 - 1, 0}}} {
			var pre, post runtime.MemStats
			runtime.ReadMemStats(&pre)
			_, _, _, err := v.ApplyDelta(bad)
			runtime.ReadMemStats(&post)
			if err == nil {
				t.Errorf("symmetrize=%v: delta %v applied, want an error", opts.Symmetrize, bad)
			}
			if grew := post.TotalAlloc - pre.TotalAlloc; grew >= 1<<20 {
				t.Errorf("symmetrize=%v: refusing delta %v allocated %d bytes, want under 1 MiB", opts.Symmetrize, bad, grew)
			}
		}
		if v.Current() != before || before.Epoch() != 0 {
			t.Fatalf("symmetrize=%v: a refused delta published epoch %d", opts.Symmetrize, v.Current().Epoch())
		}
		if c := before.CSR(); c.NumVertices != 4 || !slices.Equal(c.Offsets, offsets) || !slices.Equal(c.Targets, targets) {
			t.Fatalf("symmetrize=%v: a refused delta changed the base: %d vertices, offsets %v, targets %v", opts.Symmetrize, c.NumVertices, c.Offsets, c.Targets)
		}
		snap, _, st, err := v.ApplyDelta([]Edge{{3, 4}})
		if err != nil {
			t.Fatalf("symmetrize=%v: next valid delta: %v", opts.Symmetrize, err)
		}
		if snap.Epoch() != 1 || snap.NumVertices() != 5 || st.NewVertices != 1 {
			t.Fatalf("symmetrize=%v: next valid delta: epoch %d, %d vertices, %+v", opts.Symmetrize, snap.Epoch(), snap.NumVertices(), st)
		}
	}
}

// TestApplyDeltaBoundsGrowth: one delta may grow an n-vertex graph to
// n + max(n, 2¹⁶) vertices and no further, on a small graph (the additive
// floor) and on one past the floor (doubling).
func TestApplyDeltaBoundsGrowth(t *testing.T) {
	v, err := NewVersioned(buildSorted(t, 4, []Edge{{0, 1}}, BuildOptions{}), DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		top    uint32 // the delta's largest vertex id
		ok     bool
		vertex uint32 // vertex count after the step
	}{
		{4 + 1<<16, false, 4},
		{3 + 1<<16, true, 4 + 1<<16},
		{2 * (4 + 1<<16), false, 4 + 1<<16},
		{2*(4+1<<16) - 1, true, 2 * (4 + 1<<16)},
	} {
		_, _, _, err := v.ApplyDelta([]Edge{{step.top, 0}})
		if (err == nil) != step.ok || v.Current().NumVertices() != step.vertex {
			t.Fatalf("delta to vertex %d: err %v, %d vertices; want ok=%v and %d vertices",
				step.top, err, v.Current().NumVertices(), step.ok, step.vertex)
		}
	}
}

// TestSymmetrizedRecordsConstruction: the bit is set by a Symmetrize
// build, kept by a symmetrizing delta from such a base and copied by
// Transpose. It is a record, not a check: a directed build whose edges
// happen to pair up, a directed delta and a decoded snapshot all report
// false.
func TestSymmetrizedRecordsConstruction(t *testing.T) {
	sym := buildSorted(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{Orientation: Symmetrize})
	paired := buildSorted(t, 4, []Edge{{0, 1}, {1, 0}}, BuildOptions{})
	if !sym.Symmetrized() || !sym.Transpose().Symmetrized() {
		t.Error("a Symmetrize build and its transpose must report Symmetrized")
	}
	if paired.Symmetrized() || paired.Transpose().Symmetrized() {
		t.Error("a KeepDirection build reports Symmetrized")
	}
	delta := func(g *CSR, opts DeltaOptions) *CSR {
		v, err := NewVersioned(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, _, err := v.ApplyDelta([]Edge{{2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		return snap.CSR()
	}
	if !delta(sym, DeltaOptions{Symmetrize: true}).Symmetrized() {
		t.Error("a symmetrizing delta from a Symmetrized base lost the bit")
	}
	if delta(sym, DeltaOptions{}).Symmetrized() || delta(paired, DeltaOptions{Symmetrize: true}).Symmetrized() {
		t.Error("a directed delta, or a delta from a directed base, reports Symmetrized")
	}
	data, err := EncodeSnapshot(nil, NewSnapshot(0, sym))
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.CSR().Symmetrized() {
		t.Error("a decoded snapshot reports Symmetrized; the codec does not persist it")
	}
}

func TestApplyDeltaNewMaxDegreeVertices(t *testing.T) {
	// The delta touches only vertices beyond the base id space, and the new
	// hub immediately becomes the max-degree vertex.
	g := buildSorted(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	v, err := NewVersioned(g, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hub := uint32(10)
	var delta []Edge
	for d := uint32(11); d <= 15; d++ {
		delta = append(delta, Edge{Src: hub, Dst: d})
	}
	snap, _, st, err := v.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumVertices() != 16 {
		t.Fatalf("vertex space must grow to 16, got %d", snap.NumVertices())
	}
	if st.NewVertices != 13 {
		t.Fatalf("want 13 new vertices, got %d", st.NewVertices)
	}
	if got := snap.CSR().Degree(hub); got != 5 {
		t.Fatalf("hub degree %d, want 5", got)
	}
	// Old vertices keep their adjacency; grown vertices without delta edges
	// are isolated.
	if snap.CSR().Degree(0) != 1 || snap.CSR().Degree(3) != 0 {
		t.Fatal("grown epoch corrupted old or padding vertices")
	}
	st2 := ComputeDegreeStats(snap.CSR().OutDegrees())
	if st2.Max != 5 {
		t.Fatalf("per-epoch stats must see the new hub: max=%d", st2.Max)
	}
	if err := snap.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaKeepsSortedAdjacencyAndIsolation(t *testing.T) {
	base := buildSorted(t, 8, []Edge{{0, 5}, {0, 2}, {3, 4}}, BuildOptions{})
	v, err := NewVersioned(base, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint32(nil), base.Neighbors(0)...)
	snap, _, _, err := v.ApplyDelta([]Edge{{0, 1}, {0, 7}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Prior epoch untouched.
	for i, w := range base.Neighbors(0) {
		if w != before[i] {
			t.Fatal("base epoch adjacency mutated by ApplyDelta")
		}
	}
	if !snap.CSR().SortedAdjacency() {
		t.Fatal("merged epoch lost sorted adjacency")
	}
	adj := snap.CSR().Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("merged adjacency not strictly sorted: %v", adj)
		}
	}
}

// TestVersionedConcurrentReaders is the -race stress pin for the epoch
// contract: readers traverse whatever snapshot they grabbed while a writer
// builds and publishes later epochs. Any write to a published epoch's
// arrays is a race the detector will catch; the per-reader edge-count
// check catches torn or partially-built snapshots.
func TestVersionedConcurrentReaders(t *testing.T) {
	const vertices = 1 << 10
	rng := rand.New(rand.NewSource(7))
	var edges []Edge
	for i := 0; i < 4*vertices; i++ {
		edges = append(edges, Edge{Src: rng.Uint32() % vertices, Dst: rng.Uint32() % vertices})
	}
	base := buildSorted(t, vertices, edges, BuildOptions{DropSelfLoops: true})
	v, err := NewVersioned(base, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}

	deltas := 20
	if testing.Short() {
		deltas = 8
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := v.Current()
				g := snap.CSR()
				// Full traversal of the snapshot: sums must equal the CSR's
				// own edge count, whatever epoch this is.
				var count int64
				for u := uint32(0); u < g.NumVertices; u++ {
					count += int64(len(g.Neighbors(u)))
				}
				if count != g.NumEdges() {
					t.Errorf("epoch %d: traversed %d edges, CSR claims %d", snap.Epoch(), count, g.NumEdges())
					return
				}
				_ = rng.Int()
			}
		}(int64(r))
	}
	for i := 0; i < deltas; i++ {
		batch := make([]Edge, 64)
		for j := range batch {
			batch[j] = Edge{Src: rng.Uint32() % (vertices + 16), Dst: rng.Uint32() % (vertices + 16)}
		}
		if _, _, _, err := v.ApplyDelta(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if v.Epoch() != Epoch(deltas) {
		t.Fatalf("epoch %d after %d deltas", v.Epoch(), deltas)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdges([]Edge{{0, 1}})
	g1, err := b.Build(BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.edges) != 0 {
		t.Fatalf("Build must consume the buffer, %d edges remain", len(b.edges))
	}
	b.AddEdges([]Edge{{2, 3}})
	g2, err := b.Build(BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 1 || !g2.HasEdge(2, 3) || g2.HasEdge(0, 1) {
		t.Fatalf("reused builder leaked edges from the first build: %v", g2.Edges())
	}
	if g1.NumEdges() != 1 || !g1.HasEdge(0, 1) {
		t.Fatal("first build corrupted by reuse")
	}
}

func TestBuilderResetAfterError(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdges([]Edge{{0, 5}}) // out of range
	if _, err := b.Build(BuildOptions{}); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	if len(b.edges) != 0 {
		t.Fatal("failed Build must still reset the buffer")
	}
	b.AddEdges([]Edge{{0, 1}})
	g, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("post-error reuse built %d edges", g.NumEdges())
	}
	b.AddEdges([]Edge{{1, 0}})
	b.Reset()
	if len(b.edges) != 0 {
		t.Fatal("Reset must drop accumulated edges")
	}
}
