package graph

import (
	"fmt"
	"hash/crc32"

	"graphmaze/internal/codec"
)

// Snapshot persistence (DESIGN.md §14). An epoch is encoded with the
// checkpoint subsystem's record framing: one uvarint-version header
// followed by the CSR's typed arrays in little-endian sections, and a
// CRC-32 of all of it. Decoding is hardened the same way checkpoint
// restores are — every length is validated before allocation, the
// checksum is compared, and the rebuilt CSR is re-validated, so a corrupt
// epoch surfaces as an error, never a panic. The checksum is what catches
// a flipped bit inside a target id that stays in range: without it that
// frame decodes to a valid but different graph. Weights are not framed
// because versioned graphs are unweighted by construction.

// snapshotCodecVersion guards the layout; bump on any framing change.
// Version 1 had no checksum and is refused like any other unknown version.
const snapshotCodecVersion = 2

// EncodeSnapshot appends the snapshot's framed representation to dst and
// returns the extended slice. The encoding is deterministic: the same
// epoch always produces the same bytes.
func EncodeSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	g := s.csr
	if g.Weights != nil {
		return nil, fmt.Errorf("graph: weighted snapshots are not encodable")
	}
	start := len(dst)
	dst = codec.AppendUvarint(dst, snapshotCodecVersion)
	dst = codec.AppendUint64(dst, uint64(s.epoch))
	dst = codec.AppendUint32(dst, g.NumVertices)
	dst = codec.AppendUint32(dst, g.targetSpace)
	var flags uint64
	if g.sortedAdj {
		flags |= 1
	}
	dst = codec.AppendUvarint(dst, flags)
	dst = codec.AppendInt64s(dst, g.Offsets)
	dst = codec.AppendUint32s(dst, g.Targets)
	return codec.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// DecodeSnapshot rebuilds a snapshot encoded by EncodeSnapshot and
// returns it with the bytes following the frame. The rebuilt CSR owns
// fresh arrays (a restored epoch is as immutable as a live one) and is
// fully validated before being returned.
func DecodeSnapshot(data []byte) (*Snapshot, []byte, error) {
	frame := data
	version, data, err := codec.Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if version != snapshotCodecVersion {
		return nil, nil, fmt.Errorf("graph: snapshot codec version %d, want %d", version, snapshotCodecVersion)
	}
	epoch, data, err := codec.Uint64(data)
	if err != nil {
		return nil, nil, err
	}
	numVertices, data, err := codec.Uint32(data)
	if err != nil {
		return nil, nil, err
	}
	targetSpace, data, err := codec.Uint32(data)
	if err != nil {
		return nil, nil, err
	}
	flags, data, err := codec.Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	offsets, data, err := codec.Int64s(data)
	if err != nil {
		return nil, nil, err
	}
	targets, data, err := codec.Uint32s(data)
	if err != nil {
		return nil, nil, err
	}
	sum, rest, err := codec.Uint32(data)
	if err != nil {
		return nil, nil, err
	}
	if want := crc32.ChecksumIEEE(frame[:len(frame)-len(data)]); sum != want {
		return nil, nil, fmt.Errorf("graph: snapshot checksum %08x, want %08x", sum, want)
	}
	g := &CSR{
		NumVertices: numVertices,
		Offsets:     offsets,
		Targets:     targets,
		targetSpace: targetSpace,
		sortedAdj:   flags&1 != 0,
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: decoded snapshot invalid: %w", err)
	}
	return NewSnapshot(Epoch(epoch), g), rest, nil
}

// Delta persistence. Between full snapshots an epoch is persisted as the
// record of what it changed: the cleaned edges ApplyDelta added, which a
// restore merges into the previous epoch exactly as ingestion did. A
// record is a few hundred bytes where a snapshot is the whole CSR.

// deltaCodecVersion guards the record layout; bump on any framing change.
const deltaCodecVersion = 1

// DeltaRecord is one persisted epoch advance: applying it to the snapshot
// of epoch Epoch-1 yields the snapshot of Epoch.
type DeltaRecord struct {
	// Epoch is the epoch the record produces.
	Epoch Epoch
	// NumVertices is that epoch's vertex count (a delta may grow the
	// space).
	NumVertices uint32
	// Added is ApplyDelta's cleaned output: sorted by (Src, Dst), free of
	// duplicates, and disjoint from the previous epoch's edges.
	Added []Edge
}

// EncodeDelta appends the framed record of the epoch advance that produced
// s — added is what ApplyDelta returned with it — and returns the extended
// slice. The frame ends in a CRC-32 of everything before it, as a
// snapshot's does.
func EncodeDelta(dst []byte, s *Snapshot, added []Edge) []byte {
	start := len(dst)
	dst = codec.AppendUvarint(dst, deltaCodecVersion)
	dst = codec.AppendUint64(dst, uint64(s.epoch))
	dst = codec.AppendUint32(dst, s.csr.NumVertices)
	dst = codec.AppendUvarint(dst, uint64(len(added)))
	for _, e := range added {
		dst = codec.AppendUint32(dst, e.Src)
		dst = codec.AppendUint32(dst, e.Dst)
	}
	return codec.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// DecodeDelta reads one record written by EncodeDelta and returns it with
// the bytes following the frame. Truncated or corrupted input is an
// error, never a panic, and the edge count is checked against the bytes
// that remain before anything is allocated.
func DecodeDelta(data []byte) (DeltaRecord, []byte, error) {
	frame := data
	version, data, err := codec.Uvarint(data)
	if err != nil {
		return DeltaRecord{}, nil, err
	}
	if version != deltaCodecVersion {
		return DeltaRecord{}, nil, fmt.Errorf("graph: delta codec version %d, want %d", version, deltaCodecVersion)
	}
	epoch, data, err := codec.Uint64(data)
	if err != nil {
		return DeltaRecord{}, nil, err
	}
	numVertices, data, err := codec.Uint32(data)
	if err != nil {
		return DeltaRecord{}, nil, err
	}
	count, data, err := codec.Uvarint(data)
	if err != nil {
		return DeltaRecord{}, nil, err
	}
	if count > uint64(len(data))/8 {
		return DeltaRecord{}, nil, fmt.Errorf("graph: delta record claims %d edges, %d bytes remain: %w", count, len(data), codec.ErrTruncated)
	}
	rec := DeltaRecord{Epoch: Epoch(epoch), NumVertices: numVertices, Added: make([]Edge, count)}
	for i := range rec.Added {
		rec.Added[i].Src, data, _ = codec.Uint32(data) // the count check above covers both reads
		rec.Added[i].Dst, data, _ = codec.Uint32(data)
	}
	sum, rest, err := codec.Uint32(data)
	if err != nil {
		return DeltaRecord{}, nil, err
	}
	if want := crc32.ChecksumIEEE(frame[:len(frame)-len(data)]); sum != want {
		return DeltaRecord{}, nil, fmt.Errorf("graph: delta record checksum %08x, want %08x", sum, want)
	}
	return rec, rest, nil
}

// Apply replays the record onto prev, the snapshot of the epoch before it,
// with the merge ApplyDelta builds an epoch with, and returns the record's
// epoch. prev is only read. The record is checked against prev first — the
// epoch follows, the vertex space does not shrink and covers every
// endpoint, the edges are sorted, unique and absent from prev — so a
// record replayed onto the wrong base is an error, not a corrupt CSR.
func (r DeltaRecord) Apply(prev *Snapshot) (*Snapshot, error) {
	g := prev.csr
	if r.Epoch != prev.epoch+1 {
		return nil, fmt.Errorf("graph: delta record for epoch %d applied to epoch %d", r.Epoch, prev.epoch)
	}
	if r.NumVertices < g.NumVertices {
		return nil, fmt.Errorf("graph: delta record shrinks the vertex space from %d to %d", g.NumVertices, r.NumVertices)
	}
	for i, e := range r.Added {
		if e.Src >= r.NumVertices || e.Dst >= r.NumVertices {
			return nil, fmt.Errorf("graph: delta record edge %d->%d outside its vertex space [0,%d)", e.Src, e.Dst, r.NumVertices)
		}
		if i > 0 {
			if p := r.Added[i-1]; p.Src > e.Src || (p.Src == e.Src && p.Dst >= e.Dst) {
				return nil, fmt.Errorf("graph: delta record edges out of order at %d", i)
			}
		}
		if e.Src < g.NumVertices && g.HasEdge(e.Src, e.Dst) {
			return nil, fmt.Errorf("graph: delta record re-adds %d->%d", e.Src, e.Dst)
		}
	}
	return NewSnapshot(r.Epoch, mergeCSR(g, r.NumVertices, r.Added)), nil
}
