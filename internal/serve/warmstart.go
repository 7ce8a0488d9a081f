package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"graphmaze/internal/graph"
)

// SaveSnapshotFile persists one epoch snapshot to path using the graph
// codec. The file round-trips the epoch number, so a warm-started service
// resumes delta numbering where the previous process stopped. The bytes
// are synced to a temporary file before it is renamed over path and the
// directory is synced after, so a crash leaves either the previous
// snapshot or the new one under path, never a torn or empty file; a
// failed save removes its temporary file.
func SaveSnapshotFile(path string, snap *graph.Snapshot) error {
	blob, err := graph.EncodeSnapshot(nil, snap)
	if err != nil {
		return fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	err = writeSynced(tmp, blob)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// writeSynced writes data to a fresh file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSnapshotFile decodes a snapshot persisted by SaveSnapshotFile.
func LoadSnapshotFile(path string) (*graph.Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, rest, err := graph.DecodeSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("serve: decoding %s: %w", path, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: %s has %d trailing bytes after the snapshot", path, len(rest))
	}
	return snap, nil
}

// WarmStart resumes a versioned graph from a persisted snapshot file:
// the startup path that skips rebuilding from edge lists entirely.
func WarmStart(path string, opts graph.DeltaOptions) (*graph.Versioned, error) {
	snap, err := LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return graph.ResumeVersioned(snap, opts)
}
