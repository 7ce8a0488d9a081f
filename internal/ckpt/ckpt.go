// Package ckpt holds the checkpoint configuration and the stable-storage
// cost model of the fault-tolerance subsystem (DESIGN.md §10): engines
// snapshot their state every Interval steps into opaque blobs (serialized
// through internal/codec's record framing), and crash recovery
// (cluster.Recovery, which holds the one checkpoint it can roll back to)
// restores the latest one. The model charges per-checkpoint latency plus
// bytes over a per-node bandwidth, so checkpoint writes and recovery reads
// charge the same virtual clock as compute and network time, which is how
// the paper's methodology would account them. EpochStore persists a
// versioned graph's epochs under the same model.
package ckpt

import "fmt"

// The stable-storage cost model every checkpoint write and restore read
// is charged (DESIGN.md §10): a fixed commit latency plus the blob, sharded
// across the nodes, at a per-node bandwidth.
const (
	// Bandwidth is the per-node write/read bandwidth to stable storage in
	// bytes/second: 1 GB/s, an HDFS-over-10GbE-era figure (nodes write
	// their shards in parallel).
	Bandwidth = 1e9
	// Latency is the fixed virtual-time cost of one checkpoint or restore
	// in seconds (metadata commit, barrier): 50 ms.
	Latency = 0.05
)

// Config sizes checkpointing for a run.
type Config struct {
	// Interval is the number of engine steps (supersteps, iterations)
	// between checkpoints; 0 disables checkpointing. Interval 1 matches
	// Pregel's default of checkpointing every superstep.
	Interval int
}

// Enabled reports whether the configuration checkpoints at all.
func (c Config) Enabled() bool { return c.Interval > 0 }

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("ckpt: negative interval %d", c.Interval)
	}
	return nil
}

// WriteSeconds models the virtual time one checkpoint write costs: fixed
// latency plus the blob sharded across nodes at the storage bandwidth.
func WriteSeconds(bytes int64, nodes int) float64 {
	if nodes < 1 {
		nodes = 1
	}
	return Latency + float64(bytes)/float64(nodes)/Bandwidth
}

// ReadSeconds models a restore read; symmetric with WriteSeconds.
func ReadSeconds(bytes int64, nodes int) float64 {
	return WriteSeconds(bytes, nodes)
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
