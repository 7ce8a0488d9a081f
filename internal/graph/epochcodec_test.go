package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	g := buildSorted(t, 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 1}}, BuildOptions{})
	v, err := NewVersioned(g, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, _, err := v.ApplyDelta([]Edge{{1, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}

	blob, err := EncodeSnapshot(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after frame", len(rest))
	}
	if got.Epoch() != snap.Epoch() {
		t.Fatalf("epoch %d, want %d", got.Epoch(), snap.Epoch())
	}
	a, b := snap.CSR(), got.CSR()
	if a.NumVertices != b.NumVertices || a.TargetSpace() != b.TargetSpace() ||
		a.SortedAdjacency() != b.SortedAdjacency() {
		t.Fatal("graph shape not preserved")
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("offsets diverge at %d", i)
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("targets diverge at %d", i)
		}
	}

	// Deterministic encoding: re-encoding the decoded snapshot is
	// bit-identical.
	blob2, err := EncodeSnapshot(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding is not bit-identical")
	}
}

func TestSnapshotCodecRejectsWeighted(t *testing.T) {
	g, err := FromWeightedEdges(3, []WeightedEdge{{0, 1, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSnapshot(nil, NewSnapshot(0, g)); err == nil {
		t.Fatal("weighted snapshot must be rejected")
	}
}

func TestSnapshotCodecCorruptInput(t *testing.T) {
	g := buildSorted(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	blob, err := EncodeSnapshot(nil, NewSnapshot(3, g))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error, never panic.
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := DecodeSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	// A frame whose arrays decode and whose checksum holds but that
	// describes an invalid CSR must fail validation: point a target outside
	// the vertex space and re-seal the frame.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-5] = 0xEE
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
	if _, _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("out-of-range target: err = %v, want a validation error", err)
	}
	// Unknown version.
	verBad := append([]byte{0x7F}, blob[1:]...)
	if _, _, err := DecodeSnapshot(verBad); err == nil {
		t.Fatal("unknown codec version decoded")
	}
}

// TestSnapshotCodecRejectsEveryBitFlip: every single flipped bit of a
// small encoded snapshot is an error. Before the frame had its checksum a
// flip inside a target id that stayed in range decoded to a valid but
// different graph, which -warm-start would then have served.
func TestSnapshotCodecRejectsEveryBitFlip(t *testing.T) {
	g := buildSorted(t, 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 1}}, BuildOptions{})
	blob, err := EncodeSnapshot(nil, NewSnapshot(3, g))
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(blob); bit++ {
		bad := bytes.Clone(blob)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("snapshot with bit %d flipped decoded", bit)
		}
	}
}

// deltaFixture applies one delta to a small graph and returns the
// snapshots before and after with the cleaned edges between them.
func deltaFixture(t testing.TB) (prev, next *Snapshot, added []Edge) {
	t.Helper()
	g, err := func() (*CSR, error) {
		b := NewBuilder(6)
		b.AddEdges([]Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 1}})
		return b.Build(BuildOptions{Dedup: true, SortAdjacency: true})
	}()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVersioned(g, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev = v.Current()
	next, added, _, err = v.ApplyDelta([]Edge{{1, 4}, {4, 7}, {0, 1}, {4, 7}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return prev, next, added
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	prev, next, added := deltaFixture(t)
	blob := EncodeDelta([]byte("head"), next, added)
	rec, rest, err := DecodeDelta(blob[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the record", len(rest))
	}
	if rec.Epoch != next.Epoch() || rec.NumVertices != next.NumVertices() || !slices.Equal(rec.Added, added) {
		t.Fatalf("decoded %+v, want epoch %d, %d vertices, %v", rec, next.Epoch(), next.NumVertices(), added)
	}
	got, err := rec.Apply(prev)
	if err != nil {
		t.Fatal(err)
	}
	a, b := next.CSR(), got.CSR()
	if got.Epoch() != next.Epoch() || !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Targets, b.Targets) {
		t.Fatal("replaying the record does not rebuild the epoch ApplyDelta built")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaCodecRejectsDamage: every truncation and every single flipped
// bit of a record is an error. The checksum is what catches a flip inside
// an edge, which no length check can.
func TestDeltaCodecRejectsDamage(t *testing.T) {
	_, next, added := deltaFixture(t)
	blob := EncodeDelta(nil, next, added)
	for n := 0; n < len(blob); n++ {
		if _, _, err := DecodeDelta(blob[:n]); err == nil {
			t.Errorf("record truncated to %d of %d bytes decoded", n, len(blob))
		}
	}
	for bit := 0; bit < 8*len(blob); bit++ {
		bad := bytes.Clone(blob)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeDelta(bad); err == nil {
			t.Errorf("record with bit %d flipped decoded", bit)
		}
	}
}

// TestDeltaRecordApplyChecksItsBase: a well-formed record replayed onto
// the wrong snapshot is refused before anything is merged.
func TestDeltaRecordApplyChecksItsBase(t *testing.T) {
	prev, next, added := deltaFixture(t)
	good := DeltaRecord{Epoch: next.Epoch(), NumVertices: next.NumVertices(), Added: added}
	for name, damage := range map[string]func(r *DeltaRecord){
		"wrong epoch":     func(r *DeltaRecord) { r.Epoch++ },
		"shrunk space":    func(r *DeltaRecord) { r.NumVertices = prev.NumVertices() - 1 },
		"endpoint beyond": func(r *DeltaRecord) { r.NumVertices = 7 },
		"unsorted":        func(r *DeltaRecord) { r.Added[0], r.Added[1] = r.Added[1], r.Added[0] },
		"repeated":        func(r *DeltaRecord) { r.Added[1] = r.Added[0] },
		"already present": func(r *DeltaRecord) { r.Added[0] = Edge{0, 1} },
	} {
		r := good
		r.Added = slices.Clone(added)
		damage(&r)
		if _, err := r.Apply(prev); err == nil {
			t.Errorf("%s: record applied", name)
		}
	}
	if _, err := good.Apply(next); err == nil {
		t.Error("record applied to its own epoch")
	}
}

// FuzzDecodeDelta: arbitrary bytes must decode to an error or to a record
// no larger than its input, and must never panic — applying what decoded
// onto a real snapshot included.
func FuzzDecodeDelta(f *testing.F) {
	prev, next, added := deltaFixture(f)
	blob := EncodeDelta(nil, next, added)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Add([]byte{deltaCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if 8*len(rec.Added)+len(rest) > len(data) {
			t.Fatalf("decoded %d edges and %d trailing bytes from %d bytes", len(rec.Added), len(rest), len(data))
		}
		if snap, err := rec.Apply(prev); err == nil {
			if err := snap.CSR().Validate(); err != nil {
				t.Fatalf("applied record built an invalid CSR: %v", err)
			}
		}
	})
}

// TestEncodeIntoReusedBufferDoesNotAllocate: persisting an epoch — whole
// snapshot or delta record — into a buffer that already has the capacity
// allocates nothing, which is what lets the epoch store size a save by
// encoding it.
func TestEncodeIntoReusedBufferDoesNotAllocate(t *testing.T) {
	_, next, added := deltaFixture(t)
	snapBuf, err := EncodeSnapshot(nil, next)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := EncodeSnapshot(snapBuf[:0], next); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("EncodeSnapshot into a reused buffer allocates %v per call", a)
	}
	deltaBuf := EncodeDelta(nil, next, added)
	if a := testing.AllocsPerRun(10, func() { deltaBuf = EncodeDelta(deltaBuf[:0], next, added) }); a != 0 {
		t.Errorf("EncodeDelta into a reused buffer allocates %v per call", a)
	}
}
