package ckpt

import (
	"fmt"
	"sync"

	"graphmaze/internal/graph"
)

// EpochStore persists the epochs of a versioned graph to (simulated)
// stable storage, charged to the same latency-plus-bandwidth cost model
// checkpoints use, so an experiment can account epoch durability in the
// same virtual clock as compute. An epoch is stored either whole (Save: the
// CSR framed through the graph codec) or as the record of what it added
// to the epoch before it (SaveDelta), and Load rebuilds any stored epoch
// from the nearest whole snapshot at or below it plus the records in
// between. Unlike the step-driven checkpoint Store, the epoch store is
// keyed by epoch — restores target a version, not "the latest before the
// crash". It is safe for concurrent use.
type EpochStore struct {
	cfg Config

	mu     sync.Mutex
	blobs  map[graph.Epoch][]byte // whole snapshots
	deltas map[graph.Epoch][]byte // delta records: deltas[e] turns e-1 into e
	latest graph.Epoch
	bytes  int64
	writes int

	// lastFull is the newest whole snapshot's size and sinceFull the bytes
	// of the records saved after it: a chain of records is worth keeping
	// only while replaying it reads less than a snapshot would.
	lastFull, sinceFull int64
}

// NewEpochStore returns a store with the configuration's cost model
// (Interval is ignored; epoch persistence is delta-driven, not
// step-driven).
func NewEpochStore(cfg Config) *EpochStore {
	return &EpochStore{
		cfg:    cfg.WithDefaults(),
		blobs:  map[graph.Epoch][]byte{},
		deltas: map[graph.Epoch][]byte{},
	}
}

// Config returns the store's (defaulted) configuration.
func (s *EpochStore) Config() Config { return s.cfg }

// Save encodes and retains the whole snapshot, returning the encoded size
// and the write cost in virtual seconds for a cluster of the given node
// count. Saving an epoch twice overwrites the previous blob (the encoding
// is deterministic, so the bytes are identical anyway).
func (s *EpochStore) Save(snap *graph.Snapshot, nodes int) (int64, float64, error) {
	blob, err := graph.EncodeSnapshot(nil, snap)
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(s.blobs, snap.Epoch(), blob)
	if snap.Epoch() == s.latest {
		s.lastFull, s.sinceFull = int64(len(blob)), 0
	}
	return int64(len(blob)), s.cfg.WriteSeconds(int64(len(blob)), nodes), nil
}

// SaveDelta persists the epoch of snap as the record of the edges it
// added to the epoch before it (ApplyDelta's cleaned output), which costs
// what the delta weighs instead of what the graph does. It stores a whole
// snapshot instead when there is nothing to replay the record onto (the
// previous epoch is not the newest one stored) and when the records since
// the last whole snapshot would outweigh it — past that point a restore
// reads more from the chain than from a fresh snapshot, so the cadence of
// whole snapshots follows from the sizes and is not a setting.
func (s *EpochStore) SaveDelta(snap *graph.Snapshot, added []graph.Edge, nodes int) (int64, float64, error) {
	rec := graph.EncodeDelta(nil, snap, added)
	//lint:ignore lock Save below takes s.mu itself; the section only compares counters and stores into maps NewEpochStore made, and it has no return
	s.mu.Lock()
	chained := s.stored() && s.latest+1 == snap.Epoch() && s.sinceFull+int64(len(rec)) <= s.lastFull
	if chained {
		s.put(s.deltas, snap.Epoch(), rec)
		s.sinceFull += int64(len(rec))
	}
	s.mu.Unlock()
	if !chained {
		return s.Save(snap, nodes)
	}
	return int64(len(rec)), s.cfg.WriteSeconds(int64(len(rec)), nodes), nil
}

// put stores one encoded epoch in m. The caller holds s.mu.
func (s *EpochStore) put(m map[graph.Epoch][]byte, e graph.Epoch, blob []byte) {
	s.bytes += int64(len(blob)) - int64(len(m[e]))
	m[e] = blob
	if e >= s.latest {
		s.latest = e
	}
	s.writes++
}

// stored reports whether anything has been saved. The caller holds s.mu.
func (s *EpochStore) stored() bool { return len(s.blobs)+len(s.deltas) > 0 }

// Load rebuilds the stored snapshot for the epoch, returning it with the
// read cost in virtual seconds: the nearest whole snapshot at or below the
// epoch is decoded and the delta records after it are replayed in order.
func (s *EpochStore) Load(e graph.Epoch, nodes int) (*graph.Snapshot, float64, error) {
	// The chain, newest first: records back to the first epoch stored whole.
	var chain [][]byte
	//lint:ignore lock decoding runs after the Unlock, outside the lock; the walk under it only reads maps and appends, and its one early return unlocks first
	s.mu.Lock()
	base, ok := s.blobs[e]
	for at := e; !ok; {
		rec, isDelta := s.deltas[at]
		if !isDelta || at == 0 {
			s.mu.Unlock()
			return nil, 0, fmt.Errorf("ckpt: epoch %d not stored", e)
		}
		chain = append(chain, rec)
		at--
		base, ok = s.blobs[at]
	}
	s.mu.Unlock()

	read := int64(len(base))
	snap, _, err := graph.DecodeSnapshot(base)
	if err != nil {
		return nil, 0, err
	}
	for i := len(chain) - 1; i >= 0; i-- {
		read += int64(len(chain[i]))
		rec, _, err := graph.DecodeDelta(chain[i])
		if err != nil {
			return nil, 0, fmt.Errorf("ckpt: epoch %d: %w", snap.Epoch()+1, err)
		}
		if snap, err = rec.Apply(snap); err != nil {
			return nil, 0, fmt.Errorf("ckpt: %w", err)
		}
	}
	return snap, s.cfg.ReadSeconds(read, nodes), nil
}

// Latest reports the highest stored epoch.
func (s *EpochStore) Latest() (graph.Epoch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.stored()
}

// Stats reports total bytes currently stored and the cumulative write
// count.
func (s *EpochStore) Stats() (bytes int64, writes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.writes
}
