// Package ckpt implements the checkpoint store of the fault-tolerance
// subsystem (DESIGN.md §10): engines snapshot their state every Interval
// steps into opaque blobs (serialized through internal/codec's record
// framing), and crash recovery restores the latest one. The store models
// the cost of stable storage — per-checkpoint latency plus bytes over a
// per-node bandwidth — so checkpoint writes and recovery reads charge the
// same virtual clock as compute and network time, which is how the paper's
// methodology would account them.
package ckpt

import (
	"fmt"
	"sync"
)

// Config sizes checkpointing for a run.
type Config struct {
	// Interval is the number of engine steps (supersteps, iterations)
	// between checkpoints; 0 disables checkpointing. Interval 1 matches
	// Pregel's default of checkpointing every superstep.
	Interval int
	// Bandwidth is the per-node write/read bandwidth to stable storage in
	// bytes/second (default 1 GB/s, an HDFS-over-10GbE-era figure; nodes
	// write their shards in parallel).
	Bandwidth float64
	// Latency is the fixed virtual-time cost per checkpoint or restore
	// (metadata commit, barrier; default 50 ms).
	Latency float64
}

// Enabled reports whether the configuration checkpoints at all.
func (c Config) Enabled() bool { return c.Interval > 0 }

// WithDefaults fills unset cost parameters.
func (c Config) WithDefaults() Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e9
	}
	if c.Latency == 0 {
		c.Latency = 0.05
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("ckpt: negative interval %d", c.Interval)
	}
	if c.Bandwidth < 0 || c.Latency < 0 {
		return fmt.Errorf("ckpt: negative cost parameters")
	}
	return nil
}

// WriteSeconds models the virtual time one checkpoint write costs: fixed
// latency plus the blob sharded across nodes at the storage bandwidth.
func (c Config) WriteSeconds(bytes int64, nodes int) float64 {
	c = c.WithDefaults()
	if nodes < 1 {
		nodes = 1
	}
	return c.Latency + float64(bytes)/float64(nodes)/c.Bandwidth
}

// ReadSeconds models a restore read; symmetric with WriteSeconds.
func (c Config) ReadSeconds(bytes int64, nodes int) float64 {
	return c.WriteSeconds(bytes, nodes)
}

// Checkpoint is one saved snapshot.
type Checkpoint struct {
	// Step is the engine step the snapshot was taken at (the state is the
	// input to that step).
	Step int
	// Phases is the cluster's executed-phase count at save time; recovery
	// uses it to count rolled-back phases.
	Phases int
	// Data is the opaque engine+cluster state blob.
	Data []byte
}

// Store holds a run's checkpoints and the write/read statistics the
// metrics layer reports. It is safe for concurrent use.
type Store struct {
	cfg Config

	mu     sync.Mutex
	ckpts  []Checkpoint
	bytes  int64
	writes int
}

// NewStore returns a store for the configuration (nil when checkpointing
// is disabled, so callers can gate on the store).
func NewStore(cfg Config) *Store {
	if !cfg.Enabled() {
		return nil
	}
	return &Store{cfg: cfg.WithDefaults()}
}

// Config returns the store's (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// Interval returns the checkpoint interval in steps.
func (s *Store) Interval() int { return s.cfg.Interval }

// Due reports whether a checkpoint should be taken before the given step.
func (s *Store) Due(step int) bool {
	if s == nil {
		return false
	}
	return step%s.cfg.Interval == 0
}

// Save records a snapshot taken at the given step. The blob is retained,
// not copied; the caller must not mutate it afterwards. Returns the write
// cost in virtual seconds for a cluster of the given node count.
func (s *Store) Save(step, phases int, data []byte, nodes int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckpts = append(s.ckpts, Checkpoint{Step: step, Phases: phases, Data: data})
	s.bytes += int64(len(data))
	s.writes++
	return s.cfg.WriteSeconds(int64(len(data)), nodes)
}

// Latest returns the most recent checkpoint.
func (s *Store) Latest() (Checkpoint, bool) {
	if s == nil {
		return Checkpoint{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ckpts) == 0 {
		return Checkpoint{}, false
	}
	return s.ckpts[len(s.ckpts)-1], true
}

// Stats reports total bytes written and the write count.
func (s *Store) Stats() (bytes int64, writes int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.writes
}
