package giraph

import (
	"fmt"

	"graphmaze/internal/codec"
)

// Superstep checkpointing (DESIGN.md §10). A snapshot is exactly the state
// Pregel's checkpoints carry at a superstep boundary: every vertex value,
// the halted bitset, the global aggregator counter, and the messages
// delivered but not yet consumed. Values and messages serialize through
// the job's EncodeValue/DecodeValue (they share types for the built-in
// algorithms: float64 for PageRank, int32 for BFS), framed with
// internal/codec's record primitives so a corrupt blob is an error, never
// a panic.

// snapshotState serializes the engine's inter-superstep state.
func snapshotState(job *Job, rt *runtime, values []any) ([]byte, error) {
	out := codec.AppendUint64(nil, uint64(rt.counter))
	out = codec.AppendUint64s(out, rt.halted.words)
	var err error
	for v, val := range values {
		if out, err = job.EncodeValue(out, val); err != nil {
			return nil, fmt.Errorf("giraph: encode value of vertex %d: %w", v, err)
		}
	}
	for v := range values {
		msgs := rt.inbox.at(uint32(v))
		out = codec.AppendUvarint(out, uint64(len(msgs)))
		for _, m := range msgs {
			if out, err = job.EncodeValue(out, m); err != nil {
				return nil, fmt.Errorf("giraph: encode pending message for vertex %d: %w", v, err)
			}
		}
	}
	return out, nil
}

// restoreState rebuilds values (in place), the halted bitset, the counter
// and the inbox from a snapshot.
func restoreState(job *Job, rt *runtime, values []any, data []byte) error {
	counterBits, data, err := codec.Uint64(data)
	if err != nil {
		return fmt.Errorf("giraph: restore counter: %w", err)
	}
	words, data, err := codec.Uint64s(data)
	if err != nil {
		return fmt.Errorf("giraph: restore active set: %w", err)
	}
	if len(words) != len(rt.halted.words) {
		return fmt.Errorf("giraph: snapshot has %d halted words, runtime has %d", len(words), len(rt.halted.words))
	}
	for i := range values {
		if values[i], data, err = job.DecodeValue(data); err != nil {
			return fmt.Errorf("giraph: restore value of vertex %d: %w", i, err)
		}
	}
	in := newInbox(len(values))
	for v := range values {
		count, rest, err := codec.Uvarint(data)
		if err != nil {
			return fmt.Errorf("giraph: restore inbox of vertex %d: %w", v, err)
		}
		data = rest
		for j := uint64(0); j < count; j++ {
			var msg any
			if msg, data, err = job.DecodeValue(data); err != nil {
				return fmt.Errorf("giraph: restore message %d of vertex %d: %w", j, v, err)
			}
			in.msgs = append(in.msgs, msg)
		}
		in.offs[v+1] = len(in.msgs)
	}
	// Counter, active set and inbox commit only after the whole blob parsed
	// (a restore error aborts the run, so partially-restored values are
	// moot).
	rt.counter = int64(counterBits)
	copy(rt.halted.words, words)
	rt.inbox = in
	return nil
}

// Float64Codec returns EncodeValue/DecodeValue for float64-valued jobs
// (PageRank: values and messages are both ranks).
func Float64Codec() (func([]byte, any) ([]byte, error), func([]byte) (any, []byte, error)) {
	enc := func(dst []byte, v any) ([]byte, error) {
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("giraph: float64 codec got %T", v)
		}
		return codec.AppendFloat64(dst, f), nil
	}
	dec := func(data []byte) (any, []byte, error) {
		f, rest, err := codec.Float64(data)
		if err != nil {
			return nil, nil, err
		}
		return f, rest, nil
	}
	return enc, dec
}

// Int32Codec returns EncodeValue/DecodeValue for int32-valued jobs (BFS:
// values and messages are both distances).
func Int32Codec() (func([]byte, any) ([]byte, error), func([]byte) (any, []byte, error)) {
	enc := func(dst []byte, v any) ([]byte, error) {
		d, ok := v.(int32)
		if !ok {
			return nil, fmt.Errorf("giraph: int32 codec got %T", v)
		}
		return codec.AppendUint32(dst, uint32(d)), nil
	}
	dec := func(data []byte) (any, []byte, error) {
		u, rest, err := codec.Uint32(data)
		if err != nil {
			return nil, nil, err
		}
		return int32(u), rest, nil
	}
	return enc, dec
}
