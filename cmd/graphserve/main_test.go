package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// instance is one runServe call on a free port, stopped by cancelling the
// context main would have derived from SIGINT.
type instance struct {
	t      *testing.T
	base   string
	cancel context.CancelFunc
	out    *bytes.Buffer
	code   int
	done   chan struct{} // closed once runServe has returned and code is set
}

func boot(t *testing.T, o serveOpts) *instance {
	t.Helper()
	o.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	in := &instance{t: t, cancel: cancel, out: new(bytes.Buffer), done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(in.done)
		in.code = runServe(ctx, o, in.out, func(a string) { addr <- a })
	}()
	// A failing test must not leave the server saving snapshots into a
	// TempDir that is being removed.
	t.Cleanup(func() { cancel(); <-in.done })
	select {
	case a := <-addr:
		in.base = "http://" + a
	case <-in.done:
		t.Fatalf("runServe exited %d before serving:\n%s", in.code, in.out)
	}
	return in
}

// stop cancels the instance and returns its exit code and everything it
// printed; the buffer is only read after runServe has returned.
func (in *instance) stop() (int, string) {
	in.cancel()
	<-in.done
	return in.code, in.out.String()
}

func (in *instance) do(method, path, body string) (*http.Response, []byte) {
	in.t.Helper()
	req, err := http.NewRequest(method, in.base+path, strings.NewReader(body))
	if err != nil {
		in.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		in.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		in.t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		in.t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
	}
	return resp, b
}

// query GETs path and requires the given X-Cache disposition.
func (in *instance) query(path, xcache string) []byte {
	in.t.Helper()
	resp, b := in.do(http.MethodGet, path, "")
	if got := resp.Header.Get("X-Cache"); got != xcache {
		in.t.Fatalf("GET %s: X-Cache %q, want %q", path, got, xcache)
	}
	return b
}

// epochs reads /graphs into name → live epoch.
func (in *instance) epochs() map[string]uint64 {
	in.t.Helper()
	_, b := in.do(http.MethodGet, "/graphs", "")
	var infos []struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &infos); err != nil {
		in.t.Fatalf("/graphs: %v: %s", err, b)
	}
	m := make(map[string]uint64, len(infos))
	for _, g := range infos {
		m[g.Name] = g.Epoch
	}
	return m
}

// TestServeDeltaShutdownWarmStart drives the command path main runs, end
// to end: serve, cache, ingest a delta, shut down cleanly with snapshots
// on disk, then resume from them with the same epoch and the same bytes.
func TestServeDeltaShutdownWarmStart(t *testing.T) {
	const q = "/query/pagerank?graph=social&iters=5&k=3"
	opts := serveOpts{scale: 8, edgef: 8, seed: 42, queue: 64, cacheBytes: 1 << 20, snapDir: t.TempDir()}

	in := boot(t, opts)
	if _, b := in.do(http.MethodGet, "/healthz", ""); string(b) != "ok\n" {
		t.Fatalf("/healthz: %q", b)
	}
	cold := in.query(q, "miss")
	if hit := in.query(q, "hit"); !bytes.Equal(hit, cold) {
		t.Fatalf("hit differs from the miss that filled it:\n%s\n%s", hit, cold)
	}

	_, b := in.do(http.MethodPost, "/delta", `{"graph":"social","edges":[[0,200],[1,201],[2,3]]}`)
	var d struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(b, &d); err != nil || d.Epoch != 1 {
		t.Fatalf("/delta: epoch %d, err %v: %s", d.Epoch, err, b)
	}
	want := in.query(q, "miss")
	if bytes.Equal(want, cold) {
		t.Fatalf("epoch 1 answered with epoch 0's bytes: %s", want)
	}
	if got := in.epochs(); got["social"] != 1 || got["web"] != 0 {
		t.Fatalf("/graphs epochs %v, want social 1, web 0", got)
	}
	if _, m := in.do(http.MethodGet, "/metrics", ""); !bytes.Contains(m, []byte("graphmaze_serve_query_ns")) {
		t.Fatalf("/metrics lacks the query histogram:\n%s", m)
	}

	code, out := in.stop()
	if code != 0 || !strings.Contains(out, "clean shutdown") {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	for _, bg := range builtinGraphs {
		if fi, err := os.Stat(snapshotPath(opts.snapDir, bg.name)); err != nil || fi.Size() == 0 {
			t.Fatalf("snapshot of %s after shutdown: %v", bg.name, err)
		}
	}

	opts.warmStart = true
	in = boot(t, opts)
	if got := in.epochs(); got["social"] != 1 || got["web"] != 0 {
		t.Fatalf("warm-started epochs %v, want social 1, web 0", got)
	}
	if got := in.query(q, "miss"); !bytes.Equal(got, want) {
		t.Fatalf("warm start changed the bytes of (social, epoch 1, %s):\n%s\n%s", q, got, want)
	}
	if code, out := in.stop(); code != 0 || !strings.Contains(out, "clean shutdown") {
		t.Fatalf("warm-started exit code %d, output:\n%s", code, out)
	}
}
