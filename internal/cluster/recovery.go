package cluster

import (
	"errors"
	"fmt"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/codec"
	"graphmaze/internal/trace"
)

// Recovery drives an engine's step loop with checkpointing and
// rollback-and-replay (DESIGN.md §10), the availability scheme Pregel
// describes and Giraph inherits: every Interval steps the engine's state —
// plus the cluster's in-flight inbox, which belongs to the superstep
// boundary — is snapshotted to the checkpoint store; when a step fails
// (injected crash, transport-detected message fault, or an ordinary
// compute error) the latest checkpoint is restored and the loop re-runs
// from the checkpointed step. Checkpoint writes, restore reads, and
// failure detection all charge the cluster's virtual clock, so the
// overhead and recovery cost show up in the Report and as spans on
// the trace exactly like compute and network time.
type Recovery struct {
	c        *Cluster
	store    *ckpt.Store
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
	return &Recovery{
		c:        c,
		store:    ckpt.NewStore(c.cfg.Ckpt),
		snapshot: snapshot,
		restore:  restore,
	}
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
	recoveries := 0
	for i := 0; ; {
		if r.store.Due(i) {
			// Skip the re-save after a rollback landed us back on a
			// checkpointed step: the stored snapshot is still exact.
			if ck, ok := r.store.Latest(); !ok || ck.Step != i {
				if err := r.checkpoint(i); err != nil {
					return fmt.Errorf("cluster: checkpoint at step %d: %w", i, err)
				}
			}
		}
		done, err := step(i)
		if err != nil {
			if r.store == nil {
				return err
			}
			recoveries++
			if recoveries > r.c.cfg.MaxRecoveries {
				return fmt.Errorf("cluster: giving up after %d recoveries: %w", r.c.cfg.MaxRecoveries, err)
			}
			ck, ok := r.store.Latest()
			if !ok {
				return fmt.Errorf("cluster: step %d failed with no checkpoint to recover from: %w", i, err)
			}
			if rerr := r.recover(ck); rerr != nil {
				return errors.Join(err, rerr)
			}
			i = ck.Step
			continue
		}
		if done {
			return nil
		}
		i++
	}
}

// Store exposes the underlying checkpoint store (nil when checkpointing is
// disabled), for stats.
func (r *Recovery) Store() *ckpt.Store { return r.store }

// checkpoint snapshots engine state and the cluster inbox into one blob,
// saves it, and charges the write to the virtual clock.
func (r *Recovery) checkpoint(step int) error {
	c := r.c
	engine, err := r.snapshot()
	if err != nil {
		return err
	}
	blob := codec.AppendSection(nil, engine)
	blob = codec.AppendSection(blob, c.snapshotInbox())
	cost := r.store.Save(step, c.phases, blob, c.cfg.Nodes)
	c.tally.CheckpointSeconds += cost
	c.tally.CheckpointBytes += int64(len(blob))
	c.tally.Checkpoints++
	if c.cfg.Trace.Enabled() {
		for n := 0; n < c.cfg.Nodes; n++ {
			c.cfg.Trace.RecordVirtual(trace.PidNode(n), "cluster.checkpoint",
				fmt.Sprintf("checkpoint step %d", step), c.virtualSec, cost,
				map[string]float64{"bytes": float64(len(blob))})
		}
	}
	c.virtualSec += cost
	return nil
}

// recover restores engine state and inbox from a checkpoint and charges
// the restore read plus the rolled-back phases to the recovery tally.
func (r *Recovery) recover(ck ckpt.Checkpoint) error {
	c := r.c
	phasesAtFailure := c.phases // failPhase already counted the failed phase
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
	cost := r.store.Config().ReadSeconds(int64(len(ck.Data)), c.cfg.Nodes)
	replayed := phasesAtFailure - ck.Phases
	c.tally.RecoverySeconds += cost
	c.tally.Recoveries++
	c.tally.ReplayedPhases += replayed
	if c.cfg.Trace.Enabled() {
		for n := 0; n < c.cfg.Nodes; n++ {
			c.cfg.Trace.RecordVirtual(trace.PidNode(n), "cluster.recovery",
				fmt.Sprintf("rollback to step %d", ck.Step), c.virtualSec, cost,
				map[string]float64{
					"replayed_phases": float64(replayed),
					"bytes":           float64(len(ck.Data)),
				})
		}
	}
	c.virtualSec += cost
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
// are deep-copied out of the blob: the store retains the blob, and engines
// may mutate delivered payloads in place.
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
