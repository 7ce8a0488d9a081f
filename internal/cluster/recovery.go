package cluster

import (
	"errors"
	"fmt"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/codec"
)

// Recovery drives an engine's step loop with checkpointing and
// rollback-and-replay (DESIGN.md §10), the availability scheme Pregel
// describes and Giraph inherits: every Ckpt.Interval steps the engine's
// state — plus the cluster's in-flight inbox, which belongs to the
// superstep boundary — is snapshotted into the one checkpoint the driver
// holds, replacing the previous one; when a step fails (injected crash,
// transport-detected message fault, or an ordinary compute error) that
// checkpoint is restored and the loop re-runs from the checkpointed step.
// Checkpoint writes, restore reads, and failure detection all charge the
// cluster's virtual clock, so the overhead and recovery cost show up in
// the Report and as spans on the trace exactly like compute and network
// time.
type Recovery struct {
	c        *Cluster
	latest   *ckpt.Checkpoint // the checkpoint a rollback restores; nil before the first
	snapshot func() ([]byte, error)
	restore  func([]byte) error
}

// Recovery returns a driver that wraps an engine's step loop. snapshot
// must serialize the engine's complete inter-step state (vertex values,
// active set, any pending work the inbox does not carry); restore must
// rebuild exactly that state from a snapshot's bytes. The cluster's inbox
// is checkpointed and restored automatically alongside. With checkpointing
// disabled (Ckpt.Interval 0) the driver runs steps plainly and step errors
// propagate unchanged.
func (c *Cluster) Recovery(snapshot func() ([]byte, error), restore func([]byte) error) *Recovery {
	return &Recovery{c: c, snapshot: snapshot, restore: restore}
}

// Run executes step(0), step(1), ... until a step reports done or fails
// beyond recovery. Each step typically wraps one or more RunPhase calls (a
// Giraph superstep, a PageRank iteration). On a step error with
// checkpointing enabled, Run rolls back to the latest checkpoint and
// replays; after MaxRecoveries rollbacks it gives up and returns the step
// error wrapped in a bounds message. Without checkpointing, the first step
// error is returned as-is.
//
// Determinism: the restored state is byte-for-byte what was snapshotted,
// phases replay with fresh executed-phase indices (so consumed one-shot
// faults do not re-fire), and the transport aborts faulty exchanges
// all-or-nothing — a recovered run therefore converges to output
// bit-identical to a fault-free run's.
func (r *Recovery) Run(step func(step int) (done bool, err error)) error {
	cfg := r.c.cfg.Ckpt
	recoveries := 0
	for i := 0; ; {
		// Skip the re-save after a rollback landed us back on the
		// checkpointed step: the held snapshot is still exact.
		if cfg.Enabled() && i%cfg.Interval == 0 && (r.latest == nil || r.latest.Step != i) {
			if err := r.checkpoint(i); err != nil {
				return fmt.Errorf("cluster: checkpoint at step %d: %w", i, err)
			}
		}
		done, err := step(i)
		if err != nil {
			if !cfg.Enabled() {
				return err
			}
			recoveries++
			if recoveries > MaxRecoveries {
				return fmt.Errorf("cluster: giving up after %d recoveries: %w", MaxRecoveries, err)
			}
			// Step 0 is always checkpointed first, so a failing step has a
			// checkpoint to roll back to.
			if rerr := r.recover(); rerr != nil {
				return errors.Join(err, rerr)
			}
			i = r.latest.Step
			continue
		}
		if done {
			return nil
		}
		i++
	}
}

// checkpoint snapshots engine state and the cluster inbox into one blob,
// holds it in place of the previous checkpoint, and charges the write as
// a step.
func (r *Recovery) checkpoint(at int) error {
	c := r.c
	engine, err := r.snapshot()
	if err != nil {
		return err
	}
	blob := codec.AppendSection(nil, engine)
	blob = codec.AppendSection(blob, c.snapshotInbox())
	r.latest = &ckpt.Checkpoint{Step: at, Phases: c.phases, Data: blob}
	c.charge(step{cat: "cluster.checkpoint", name: fmt.Sprintf("checkpoint step %d", at),
		fixed: ckpt.WriteSeconds(int64(len(blob)), c.cfg.Nodes), ckptBytes: int64(len(blob))})
	return nil
}

// recover restores engine state and inbox from the held checkpoint and
// charges the restore read as a step that counts the rolled-back phases.
func (r *Recovery) recover() error {
	c, ck := r.c, r.latest
	engine, rest, err := codec.Section(ck.Data)
	if err != nil {
		return fmt.Errorf("cluster: corrupt checkpoint at step %d: %w", ck.Step, err)
	}
	inbox, _, err := codec.Section(rest)
	if err != nil {
		return fmt.Errorf("cluster: corrupt checkpoint at step %d: %w", ck.Step, err)
	}
	if err := r.restore(engine); err != nil {
		return fmt.Errorf("cluster: restore engine state from step %d: %w", ck.Step, err)
	}
	if err := c.restoreInbox(inbox); err != nil {
		return fmt.Errorf("cluster: restore inbox from step %d: %w", ck.Step, err)
	}
	// failPhase already counted the failed phase among the replayed ones.
	c.charge(step{cat: "cluster.recovery", name: fmt.Sprintf("rollback to step %d", ck.Step),
		fixed: ckpt.ReadSeconds(int64(len(ck.Data)), c.cfg.Nodes), ckptBytes: int64(len(ck.Data)),
		replayed: c.phases - ck.Phases})
	return nil
}

// snapshotInbox serializes the delivered-but-unconsumed inbox: the
// messages in flight at a superstep boundary are part of the checkpoint in
// Pregel's scheme, and native engines (PageRank's contribution exchange)
// likewise carry inter-phase state there.
func (c *Cluster) snapshotInbox() []byte {
	out := codec.AppendUvarint(nil, uint64(c.cfg.Nodes))
	for _, payloads := range c.inbox {
		out = codec.AppendUvarint(out, uint64(len(payloads)))
		for _, p := range payloads {
			out = codec.AppendSection(out, p)
		}
	}
	return out
}

// restoreInbox rebuilds the inbox from snapshotInbox's encoding. Payloads
// are deep-copied out of the blob: the Recovery driver holds the blob for
// the next rollback, and engines may mutate delivered payloads in place.
func (c *Cluster) restoreInbox(data []byte) error {
	nodes, data, err := codec.Uvarint(data)
	if err != nil {
		return err
	}
	if nodes != uint64(c.cfg.Nodes) {
		return fmt.Errorf("cluster: inbox snapshot for %d nodes, cluster has %d", nodes, c.cfg.Nodes)
	}
	inbox := make([][][]byte, c.cfg.Nodes)
	for n := range inbox {
		count, rest, err := codec.Uvarint(data)
		if err != nil {
			return err
		}
		if count > uint64(len(rest)) {
			return fmt.Errorf("cluster: inbox snapshot claims %d payloads, %d bytes remain: %w",
				count, len(rest), codec.ErrTruncated)
		}
		data = rest
		if count > 0 {
			inbox[n] = make([][]byte, count)
			for j := range inbox[n] {
				sec, rest, err := codec.Section(data)
				if err != nil {
					return err
				}
				inbox[n][j] = append([]byte(nil), sec...)
				data = rest
			}
		}
	}
	c.inbox = inbox
	return nil
}
