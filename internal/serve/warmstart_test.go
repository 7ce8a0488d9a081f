package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"graphmaze/internal/graph"
)

// TestWarmStartRoundTrip is the satellite acceptance test: a graph that
// has ingested deltas is persisted with SaveSnapshotFile, resumed with
// WarmStart, and the resumed service answers every query with the exact
// bytes the original would produce, at the original epoch number.
func TestWarmStartRoundTrip(t *testing.T) {
	v := buildVersioned(t, 7, true, 42)
	if _, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 90}}); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if _, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 7, Dst: 8}}); err != nil {
		t.Fatalf("ApplyDelta 2: %v", err)
	}
	if v.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", v.Epoch())
	}

	path := filepath.Join(t.TempDir(), "social.snap")
	if err := SaveSnapshotFile(path, v.Current()); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	resumed, err := WarmStart(path, v.Options())
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if resumed.Epoch() != 2 {
		t.Errorf("resumed epoch = %d, want 2 (delta numbering must continue)", resumed.Epoch())
	}
	if !resumed.Options().Symmetrize {
		t.Errorf("resumed options lost Symmetrize")
	}

	// Both services must serve byte-identical bodies for every kind.
	cold := New(Config{Workers: 2})
	defer cold.Close()
	warm := New(Config{Workers: 2})
	defer warm.Close()
	if err := cold.AddGraph("social", v); err != nil {
		t.Fatalf("AddGraph cold: %v", err)
	}
	if err := warm.AddGraph("social", resumed); err != nil {
		t.Fatalf("AddGraph warm: %v", err)
	}
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()
	for _, path := range []string{
		"/query/pagerank?graph=social&iters=10&k=5",
		"/query/bfs?graph=social&source=1",
		"/query/cc?graph=social",
		"/query/tc?graph=social",
		"/query/datalog?graph=social&source=2",
	} {
		code, _, a := get(t, tsCold.URL+path, nil)
		if code != 200 {
			t.Fatalf("cold GET %s: status %d", path, code)
		}
		code, _, b := get(t, tsWarm.URL+path, nil)
		if code != 200 {
			t.Fatalf("warm GET %s: status %d", path, code)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: warm-started body differs\ncold: %s\nwarm: %s", path, a, b)
		}
	}

	// A delta on the resumed graph continues the epoch sequence.
	snap, _, _, err := resumed.ApplyDelta([]graph.Edge{{Src: 10, Dst: 11}})
	if err != nil {
		t.Fatalf("ApplyDelta on resumed: %v", err)
	}
	if snap.Epoch() != 3 {
		t.Errorf("post-resume delta epoch = %d, want 3", snap.Epoch())
	}
}

func TestWarmStartErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := WarmStart(filepath.Join(dir, "missing.snap"), graph.DeltaOptions{}); err == nil {
		t.Error("WarmStart on a missing file should fail")
	}
	if _, err := LoadSnapshotFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("LoadSnapshotFile on a missing file should fail")
	}
	// Corrupt blob.
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(bad); err == nil {
		t.Error("LoadSnapshotFile on garbage should fail")
	}
	if _, err := graph.ResumeVersioned(nil, graph.DeltaOptions{}); err == nil {
		t.Error("ResumeVersioned(nil) should fail")
	}
}

// TestSaveSnapshotFileFailureKeepsPrior: a save that fails after its
// temporary file is open — the write hits a full device — leaves the
// previous snapshot loadable under the final name and no .tmp beside it;
// so does one whose rename fails.
func TestSaveSnapshotFileFailureKeepsPrior(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	v := buildVersioned(t, 7, true, 42)
	path := filepath.Join(t.TempDir(), "social.snap")
	if err := SaveSnapshotFile(path, v.Current()); err != nil {
		t.Fatalf("first save: %v", err)
	}
	next, _, _, err := v.ApplyDelta([]graph.Edge{{Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}

	// The temporary name resolves to /dev/full: open succeeds, the write
	// returns ENOSPC.
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotFile(path, next); err == nil {
		t.Fatal("save onto a full device reported success")
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed write left %s.tmp behind (err %v)", path, err)
	}
	prior, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("prior snapshot no longer loads: %v", err)
	}
	if prior.Epoch() != 0 {
		t.Errorf("prior snapshot epoch %d, want 0", prior.Epoch())
	}

	// A directory under the final name makes the rename fail after a
	// complete, synced temporary file exists.
	blocked := filepath.Join(t.TempDir(), "web.snap")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotFile(blocked, next); err == nil {
		t.Fatal("save over a directory reported success")
	}
	if _, err := os.Lstat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed rename left %s.tmp behind (err %v)", blocked, err)
	}

	if err := SaveSnapshotFile(path, next); err != nil {
		t.Fatalf("save after the failures: %v", err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("reload after a good save: %v", err)
	}
	if got.Epoch() != 1 {
		t.Errorf("reloaded epoch %d, want 1", got.Epoch())
	}
}
