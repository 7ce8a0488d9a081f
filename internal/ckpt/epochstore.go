package ckpt

import (
	"fmt"
	"sync"

	"graphmaze/internal/graph"
)

// EpochStore persists the epochs of a versioned graph to (simulated)
// stable storage, charged to the same latency-plus-bandwidth cost model
// checkpoints use, so an experiment can account epoch durability in the
// same virtual clock as compute. It holds one chain: the newest whole
// snapshot (Save: the CSR framed through the graph codec) and the records
// of what each later epoch added to the one before it (SaveDelta). Load
// rebuilds any epoch in that window; starting a new chain releases the old
// one, so what the store retains stays within about twice one snapshot of
// the current graph however many epochs it has seen. It is safe for
// concurrent use.
type EpochStore struct {
	mu sync.Mutex
	// base is the newest whole snapshot, of epoch baseEpoch, and records
	// the delta records saved after it: records[i] turns epoch
	// baseEpoch+i into baseEpoch+i+1. recordBytes is their total size.
	base        []byte
	baseEpoch   graph.Epoch
	records     [][]byte
	recordBytes int64
	writes      int
}

// NewEpochStore returns an empty store charged at the package's
// stable-storage cost model. The configuration's Interval is ignored:
// epoch persistence is delta-driven, not step-driven.
func NewEpochStore(_ Config) *EpochStore { return &EpochStore{} }

// Save encodes the whole snapshot and starts a new chain at its epoch,
// releasing the previous one. It returns the encoded size and the write
// cost in virtual seconds for a cluster of the given node count.
func (s *EpochStore) Save(snap *graph.Snapshot, nodes int) (int64, float64, error) {
	blob, err := graph.EncodeSnapshot(nil, snap)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base, s.baseEpoch = blob, snap.Epoch()
	s.records, s.recordBytes = nil, 0
	s.writes++
	return int64(len(blob)), WriteSeconds(int64(len(blob)), nodes), nil
}

// SaveDelta persists the epoch of snap as the record of the edges it
// added to the epoch before it (ApplyDelta's cleaned output), which costs
// what the delta weighs instead of what the graph does. It starts a new
// chain with a whole snapshot instead when there is nothing to replay the
// record onto (the previous epoch is not the chain's newest) and when the
// chain's records would outweigh its snapshot — past that point a restore
// reads more from the chain than from a fresh snapshot, so the cadence of
// whole snapshots follows from the sizes and is not a setting.
func (s *EpochStore) SaveDelta(snap *graph.Snapshot, added []graph.Edge, nodes int) (int64, float64, error) {
	rec := graph.EncodeDelta(nil, snap, added)
	//lint:ignore lock Save below takes s.mu itself; the section only compares counters and appends to the chain, and it has no return
	s.mu.Lock()
	chained := s.base != nil && s.newest()+1 == snap.Epoch() && s.recordBytes+int64(len(rec)) <= int64(len(s.base))
	if chained {
		s.records = append(s.records, rec)
		s.recordBytes += int64(len(rec))
		s.writes++
	}
	s.mu.Unlock()
	if !chained {
		return s.Save(snap, nodes)
	}
	return int64(len(rec)), WriteSeconds(int64(len(rec)), nodes), nil
}

// newest is the chain's newest epoch. The caller holds s.mu.
func (s *EpochStore) newest() graph.Epoch { return s.baseEpoch + graph.Epoch(len(s.records)) }

// Load rebuilds the stored snapshot for the epoch, returning it with the
// read cost in virtual seconds: the chain's whole snapshot is decoded and
// its records up to the epoch are replayed in order. An epoch older than
// the chain's snapshot was released and is an error.
func (s *EpochStore) Load(e graph.Epoch, nodes int) (*graph.Snapshot, float64, error) {
	base, records, err := s.chain(e)
	if err != nil {
		return nil, 0, err
	}
	read := int64(len(base))
	snap, _, err := graph.DecodeSnapshot(base)
	if err != nil {
		return nil, 0, err
	}
	for _, blob := range records {
		read += int64(len(blob))
		rec, _, err := graph.DecodeDelta(blob)
		if err != nil {
			return nil, 0, fmt.Errorf("ckpt: epoch %d: %w", snap.Epoch()+1, err)
		}
		if snap, err = rec.Apply(snap); err != nil {
			return nil, 0, fmt.Errorf("ckpt: %w", err)
		}
	}
	return snap, ReadSeconds(read, nodes), nil
}

// chain returns what Load replays for epoch e: the chain's snapshot and
// its records up to e. Decoding them is left to the caller, outside the
// lock; stored blobs are never modified.
func (s *EpochStore) chain(e graph.Epoch) (base []byte, records [][]byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.base == nil || e > s.newest():
		return nil, nil, fmt.Errorf("ckpt: epoch %d not stored", e)
	case e < s.baseEpoch:
		return nil, nil, fmt.Errorf("ckpt: epoch %d released: the stored chain starts at epoch %d", e, s.baseEpoch)
	}
	return s.base, s.records[:e-s.baseEpoch], nil
}

// Stats reports the bytes the store retains now and the cumulative write
// count.
func (s *EpochStore) Stats() (bytes int64, writes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.base)) + s.recordBytes, s.writes
}
