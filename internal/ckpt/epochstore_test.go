package ckpt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphmaze/internal/graph"
)

// Latest reports the newest stored epoch: the round-trip tests' view of
// what the store holds.
func (s *EpochStore) Latest() (graph.Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newest(), s.base != nil
}

// sameSnapshot reports whether got is want's epoch, array for array.
func sameSnapshot(got, want *graph.Snapshot) bool {
	a, b := want.CSR(), got.CSR()
	return got.Epoch() == want.Epoch() && a.NumVertices == b.NumVertices &&
		slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Targets, b.Targets)
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
	got, readCost, err := store.Load(snap0.Epoch(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if readCost <= 0 {
		t.Fatal("load must charge the cost model")
	}
	if !sameSnapshot(got, snap0) {
		t.Fatalf("restored epoch %d with %d edges, want %d with %d",
			got.Epoch(), got.NumEdges(), snap0.Epoch(), snap0.NumEdges())
	}

	// A whole snapshot starts a new chain: the old epoch is released.
	snap1, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	bytes1, _, err := store.Save(snap1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if latest, ok := store.Latest(); !ok || latest != snap1.Epoch() {
		t.Fatalf("latest = %d/%v, want %d", latest, ok, snap1.Epoch())
	}
	if held, _ := store.Stats(); held != bytes1 {
		t.Fatalf("store holds %d bytes after a new chain, want its snapshot's %d", held, bytes1)
	}
	if got, _, err := store.Load(snap1.Epoch(), 4); err != nil || !sameSnapshot(got, snap1) {
		t.Fatalf("Load(%d) = %v, %v", snap1.Epoch(), got, err)
	}
	if _, _, err := store.Load(snap0.Epoch(), 4); err == nil || !strings.Contains(err.Error(), "epoch 0 released") {
		t.Fatalf("Load of the released epoch 0 = %v, want an error naming it", err)
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
// persisted as its delta record, Load rebuilds each epoch of the current
// chain array for array — across the points where the records outweigh
// the chain's snapshot and the store starts a new chain by itself. Each
// rollover releases the old chain, so the bytes held stay within twice a
// snapshot of the live graph, and an epoch before the chain is an error
// that names it.
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
		chainStart := v.Epoch()
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
			if cost <= 0 || writes != i+2 {
				t.Fatalf("epoch %d: SaveDelta reported cost %g after %d writes", snap.Epoch(), cost, writes)
			}
			if n > int64(32+8*len(added)) {
				// Not a record: the store rolled over to a new chain.
				whole++
				chainStart = snap.Epoch()
				if after != n {
					t.Fatalf("epoch %d: a new chain of %d bytes left the store holding %d", snap.Epoch(), n, after)
				}
			} else {
				records++
				if after-before != n {
					t.Fatalf("epoch %d: a %d-byte record grew the store by %d", snap.Epoch(), n, after-before)
				}
			}
			full, err := graph.EncodeSnapshot(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			if after > 2*int64(len(full)) {
				t.Fatalf("epoch %d: store holds %d bytes, over twice the live snapshot's %d", snap.Epoch(), after, len(full))
			}
			live = append(live, snap)
		}
		if whole < 2 || records < 20 {
			t.Fatalf("sym=%v: %d whole snapshots and %d records; the run must cross a rollover and still be mostly records", sym, whole, records)
		}
		for _, want := range live {
			got, cost, err := store.Load(want.Epoch(), 1)
			if want.Epoch() < chainStart {
				released := fmt.Sprintf("epoch %d released", want.Epoch())
				if err == nil || !strings.Contains(err.Error(), released) {
					t.Fatalf("sym=%v: Load(%d) before the chain at %d = %v, want an error naming the epoch", sym, want.Epoch(), chainStart, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("sym=%v: Load(%d): %v", sym, want.Epoch(), err)
			}
			if cost <= 0 || !sameSnapshot(got, want) {
				t.Fatalf("sym=%v: Load(%d) differs from the live snapshot", sym, want.Epoch())
			}
		}
		if latest, ok := store.Latest(); !ok || latest != v.Epoch() || chainStart == 0 {
			t.Fatalf("latest = %d/%v, want %d, from a chain past epoch 0 (at %d)", latest, ok, v.Epoch(), chainStart)
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
	rec := store.records[1] // turns epoch 1 into 2
	for _, damaged := range [][]byte{rec[:len(rec)-3], flipBit(rec, 8*len(rec)/2)} {
		store.records[1] = damaged
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
