package ckpt

import (
	"math/rand"
	"slices"
	"testing"

	"graphmaze/internal/graph"
)

// Latest reports the highest stored epoch: the round-trip tests' view of
// what the store holds.
func (s *EpochStore) Latest() (graph.Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.stored()
}

func versionedFixture(t *testing.T) *graph.Versioned {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	g, err := b.Build(graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := graph.NewVersioned(g, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEpochStoreRoundTrip(t *testing.T) {
	v := versionedFixture(t)
	store := NewEpochStore(Config{})

	snap0 := v.Current()
	bytes0, cost, err := store.Save(snap0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes0 <= 0 || cost <= 0 {
		t.Fatalf("save must report size and cost: %d bytes, %g s", bytes0, cost)
	}
	snap1, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(snap1, 4); err != nil {
		t.Fatal(err)
	}

	if latest, ok := store.Latest(); !ok || latest != snap1.Epoch() {
		t.Fatalf("latest = %d/%v, want %d", latest, ok, snap1.Epoch())
	}
	// Restoring an older epoch is the whole point of keying by epoch.
	got, readCost, err := store.Load(snap0.Epoch(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if readCost <= 0 {
		t.Fatal("load must charge the cost model")
	}
	if got.Epoch() != snap0.Epoch() || got.NumEdges() != snap0.NumEdges() {
		t.Fatalf("restored epoch %d with %d edges, want %d with %d",
			got.Epoch(), got.NumEdges(), snap0.Epoch(), snap0.NumEdges())
	}
	a, b := snap0.CSR(), got.CSR()
	for u := uint32(0); u < a.NumVertices; u++ {
		an, bn := a.Neighbors(u), b.Neighbors(u)
		if len(an) != len(bn) {
			t.Fatalf("vertex %d degree %d, want %d", u, len(bn), len(an))
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("vertex %d adjacency diverges", u)
			}
		}
	}

	if _, _, err := store.Load(99, 4); err == nil {
		t.Fatal("loading an unstored epoch must fail")
	}
}

func TestEpochStoreStatsAndOverwrite(t *testing.T) {
	v := versionedFixture(t)
	store := NewEpochStore(Config{})
	if _, ok := store.Latest(); ok {
		t.Fatal("empty store must have no latest epoch")
	}
	n, _, err := store.Save(v.Current(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save(v.Current(), 1); err != nil {
		t.Fatal(err)
	}
	bytes, writes := store.Stats()
	if writes != 2 {
		t.Fatalf("writes = %d, want 2", writes)
	}
	if bytes != n {
		t.Fatalf("overwrite must not double stored bytes: %d, want %d", bytes, n)
	}
}

// randomDelta draws edges over a slightly larger space than the graph
// has, so some batches grow it.
func randomDelta(rng *rand.Rand, n uint32, edges int) []graph.Edge {
	d := make([]graph.Edge, edges)
	for i := range d {
		d[i] = graph.Edge{Src: uint32(rng.Intn(int(n) + 2)), Dst: uint32(rng.Intn(int(n) + 2))}
	}
	return d
}

// TestEpochStoreSaveDeltaLoadsEveryEpoch: with every epoch after the first
// persisted as its delta record, Load rebuilds each one array for array —
// across the point where the records outweigh the last whole snapshot and
// the store takes a new one by itself.
func TestEpochStoreSaveDeltaLoadsEveryEpoch(t *testing.T) {
	for _, sym := range []bool{false, true} {
		v := versionedFixture(t)
		if sym {
			b := graph.NewBuilder(5)
			b.AddEdges([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
			g, err := b.Build(graph.BuildOptions{Dedup: true, Orientation: graph.Symmetrize})
			if err != nil {
				t.Fatal(err)
			}
			if v, err = graph.NewVersioned(g, graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true}); err != nil {
				t.Fatal(err)
			}
		}
		store := NewEpochStore(Config{})
		if _, _, err := store.Save(v.Current(), 1); err != nil {
			t.Fatal(err)
		}
		live := []*graph.Snapshot{v.Current()}
		rng := rand.New(rand.NewSource(5))
		whole, records := 1, 0
		for i := 0; i < 40; i++ {
			// Every fifth batch is wholly duplicate: the epoch advances and
			// the record carries no edges.
			delta := randomDelta(rng, v.Current().NumVertices(), 6)
			if i%5 == 4 {
				delta = v.Current().CSR().Edges()[:1]
			}
			snap, added, _, err := v.ApplyDelta(delta)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := store.Stats()
			n, cost, err := store.SaveDelta(snap, added, 1)
			if err != nil {
				t.Fatal(err)
			}
			after, writes := store.Stats()
			if after-before != n || cost <= 0 || writes != i+2 {
				t.Fatalf("epoch %d: SaveDelta reported %d bytes at cost %g, stats grew by %d over %d writes", snap.Epoch(), n, cost, after-before, writes)
			}
			if n > int64(32+8*len(added)) {
				whole++ // not a record: the store rolled over to a whole snapshot
			} else {
				records++
			}
			live = append(live, snap)
		}
		if whole < 2 || records < 20 {
			t.Fatalf("sym=%v: %d whole snapshots and %d records; the run must cross a rollover and still be mostly records", sym, whole, records)
		}
		for _, want := range live {
			got, cost, err := store.Load(want.Epoch(), 1)
			if err != nil {
				t.Fatalf("sym=%v: Load(%d): %v", sym, want.Epoch(), err)
			}
			a, b := want.CSR(), got.CSR()
			if got.Epoch() != want.Epoch() || cost <= 0 || !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Targets, b.Targets) {
				t.Fatalf("sym=%v: Load(%d) differs from the live snapshot", sym, want.Epoch())
			}
		}
		if latest, ok := store.Latest(); !ok || latest != v.Epoch() {
			t.Fatalf("latest = %d/%v, want %d", latest, ok, v.Epoch())
		}
	}
}

// TestEpochStoreSaveDeltaWithoutABase: a record needs the epoch before it
// in the store; without one SaveDelta stores the snapshot whole, and Load
// never walks past a gap.
func TestEpochStoreSaveDeltaWithoutABase(t *testing.T) {
	v := versionedFixture(t)
	store := NewEpochStore(Config{})
	snap1, added, _, err := v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.SaveDelta(snap1, added, 1); err != nil {
		t.Fatal(err)
	}
	if got, _, err := store.Load(1, 1); err != nil || got.NumEdges() != snap1.NumEdges() {
		t.Fatalf("epoch 1 saved into an empty store: Load = %v, %v", got, err)
	}
	if _, _, err := store.Load(0, 1); err == nil {
		t.Fatal("epoch 0 was never stored")
	}
	if _, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 4, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	snap3, added, _, err := v.ApplyDelta([]graph.Edge{{Src: 4, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 2 was never saved: epoch 3 cannot be a record.
	if _, _, err := store.SaveDelta(snap3, added, 1); err != nil {
		t.Fatal(err)
	}
	if got, _, err := store.Load(3, 1); err != nil || got.NumEdges() != snap3.NumEdges() {
		t.Fatalf("epoch 3 saved over a gap: Load = %v, %v", got, err)
	}
	if _, _, err := store.Load(2, 1); err == nil {
		t.Fatal("epoch 2 was never stored")
	}
}

// TestEpochStoreLoadReportsDamagedRecord: a damaged record surfaces as
// Load's error for every epoch that replays it, and epochs below it still
// load.
func TestEpochStoreLoadReportsDamagedRecord(t *testing.T) {
	v := versionedFixture(t)
	store := NewEpochStore(Config{})
	if _, _, err := store.Save(v.Current(), 1); err != nil {
		t.Fatal(err)
	}
	for _, d := range [][]graph.Edge{{{Src: 3, Dst: 4}}, {{Src: 4, Dst: 0}}, {{Src: 0, Dst: 2}}} {
		snap, added, _, err := v.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.SaveDelta(snap, added, 1); err != nil {
			t.Fatal(err)
		}
	}
	rec := store.deltas[2]
	for _, damaged := range [][]byte{rec[:len(rec)-3], flipBit(rec, 8*len(rec)/2)} {
		store.deltas[2] = damaged
		if _, _, err := store.Load(1, 1); err != nil {
			t.Errorf("epoch 1 sits below the damaged record: %v", err)
		}
		for _, e := range []graph.Epoch{2, 3} {
			if _, _, err := store.Load(e, 1); err == nil {
				t.Errorf("Load(%d) replayed a damaged record", e)
			}
		}
	}
}

func flipBit(b []byte, bit int) []byte {
	out := slices.Clone(b)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}
