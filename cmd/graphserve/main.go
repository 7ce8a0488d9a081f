// Command graphserve is the always-on multi-tenant graph query service:
// it loads graphs into epoch-versioned snapshots once and serves
// PageRank / BFS / connected-components / triangle-count / Datalog
// queries over HTTP while /delta keeps ingesting edge batches.
//
// Usage:
//
//	graphserve -addr :8090 -scale 12                 # serve two RMAT graphs
//	graphserve -addr :8090 -snapshot-dir /tmp/snaps  # persist epochs on shutdown
//	graphserve -addr :8090 -snapshot-dir /tmp/snaps -warm-start
//
// Query examples once serving:
//
//	curl 'http://127.0.0.1:8090/query/pagerank?graph=social&iters=10&k=3'
//	curl 'http://127.0.0.1:8090/query/bfs?graph=web&source=0' -H 'X-Tenant: alice'
//	curl -X POST http://127.0.0.1:8090/delta -d '{"graph":"social","edges":[[1,2],[3,4]]}'
//	curl http://127.0.0.1:8090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"graphmaze/internal/datasets"
	"graphmaze/internal/graph"
	"graphmaze/internal/obs"
	"graphmaze/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8090", "listen address (host:port; port 0 picks a free one)")
		scale     = flag.Int("scale", 12, "RMAT scale of the built-in graphs (2^scale vertices)")
		edgef     = flag.Int("edgefactor", 8, "RMAT edge factor (edges per vertex)")
		seed      = flag.Int64("seed", 42, "RMAT seed")
		workers   = flag.Int("workers", 0, "kernel pool workers (0 = GOMAXPROCS)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 2x workers)")
		queue     = flag.Int("queue-depth", 64, "admission queue depth; beyond it requests shed with 429")
		cacheB    = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result cache capacity (bytes: bodies, keys and a fixed per-entry overhead)")
		snapDir   = flag.String("snapshot-dir", "", "directory for persisted epoch snapshots (saved on clean shutdown)")
		warmStart = flag.Bool("warm-start", false, "resume graphs from -snapshot-dir instead of rebuilding from edge lists")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := runServe(ctx, serveOpts{
		addr: *addr, scale: *scale, edgef: *edgef, seed: *seed,
		workers: *workers, inflight: *inflight, queue: *queue, cacheBytes: *cacheB,
		snapDir: *snapDir, warmStart: *warmStart,
	}, os.Stdout, nil)
	stop()
	os.Exit(code)
}

type serveOpts struct {
	addr                     string
	scale, edgef             int
	seed, cacheBytes         int64
	workers, inflight, queue int
	snapDir                  string
	warmStart                bool
}

// builtinGraphs describes the two graphs the server always hosts: a
// symmetrized "social" graph (supports triangle counting) and a directed
// "web" graph, both Graph500 RMAT.
var builtinGraphs = []struct {
	name      string
	symmetric bool
}{
	{"social", true},
	{"web", false},
}

// drainTimeout bounds how long a shutdown waits for in-flight requests;
// the slowest served query (triangle counting at the largest built-in
// scale) finishes well inside it.
const drainTimeout = 15 * time.Second

// runServe serves until ctx is cancelled, then drains, saves snapshots
// and returns the process exit code. Progress lines go to out; ready, if
// non-nil, is called with the bound address once the listener is up.
func runServe(ctx context.Context, o serveOpts, out io.Writer, ready func(addr string)) int {
	reg := obs.NewRegistry()
	sampler := obs.StartSampler(reg, obs.DefaultSampleInterval)
	defer sampler.Stop()

	srv := serve.New(serve.Config{
		Workers:     o.workers,
		MaxInFlight: o.inflight,
		QueueDepth:  o.queue,
		CacheBytes:  o.cacheBytes,
		Registry:    reg,
	})
	defer srv.Close()

	for _, bg := range builtinGraphs {
		v, how, err := loadGraph(o, bg.name, bg.symmetric)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphserve: loading %s: %v\n", bg.name, err)
			return 1
		}
		if err := srv.AddGraph(bg.name, v); err != nil {
			fmt.Fprintf(os.Stderr, "graphserve: %v\n", err)
			return 1
		}
		snap := v.Current()
		fmt.Fprintf(out, "graph %-8s %8d vertices %10d edges  epoch %d  (%s)\n",
			bg.name, snap.NumVertices(), snap.CSR().NumEdges(), snap.Epoch(), how)
	}

	ln, err := obs.ServeHandler(o.addr, srv.Handler())
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphserve: listen %s: %v\n", o.addr, err)
		return 1
	}
	fmt.Fprintf(out, "serving on http://%s (metrics at /metrics, queries at /query/<kind>)\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	<-ctx.Done()
	fmt.Fprintln(out, "shutting down...")
	// Drain before saving: a /delta still in flight must land in the
	// snapshot it was acknowledged against.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	drainErr := ln.Shutdown(drainCtx)
	cancel()
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "graphserve: requests still in flight after %v were dropped: %v\n", drainTimeout, drainErr)
	}
	if o.snapDir != "" {
		if err := saveSnapshots(srv, o.snapDir, out); err != nil {
			fmt.Fprintf(os.Stderr, "graphserve: %v\n", err)
			return 1
		}
	}
	if drainErr != nil {
		return 1
	}
	fmt.Fprintln(out, "clean shutdown")
	return 0
}

// loadGraph warm-starts the named graph from its persisted snapshot when
// asked (and available), else builds it from a fresh RMAT edge list.
func loadGraph(o serveOpts, name string, symmetric bool) (*graph.Versioned, string, error) {
	opts := graph.DeltaOptions{Symmetrize: symmetric, DropSelfLoops: true}
	if o.warmStart {
		if o.snapDir == "" {
			return nil, "", fmt.Errorf("-warm-start needs -snapshot-dir")
		}
		path := snapshotPath(o.snapDir, name)
		v, err := serve.WarmStart(path, opts)
		if err != nil {
			return nil, "", fmt.Errorf("warm start from %s: %w", path, err)
		}
		return v, "warm start: " + path, nil
	}
	prep := datasets.PrepPageRank
	if symmetric {
		prep = datasets.PrepBFS
	}
	csr, err := datasets.Generate(o.scale, o.edgef, o.seed+int64(len(name)), prep)
	if err != nil {
		return nil, "", err
	}
	v, err := graph.NewVersioned(csr, opts)
	if err != nil {
		return nil, "", err
	}
	return v, fmt.Sprintf("built from RMAT scale %d", o.scale), nil
}

func snapshotPath(dir, name string) string {
	return filepath.Join(dir, name+".snap")
}

// saveSnapshots persists every graph's current epoch for a later
// -warm-start.
func saveSnapshots(srv *serve.Server, dir string, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, bg := range builtinGraphs {
		v, ok := srv.Graph(bg.name)
		if !ok {
			continue
		}
		snap := v.Current()
		path := snapshotPath(dir, bg.name)
		if err := serve.SaveSnapshotFile(path, snap); err != nil {
			return fmt.Errorf("saving %s: %w", path, err)
		}
		fmt.Fprintf(out, "saved %s epoch %d to %s\n", bg.name, snap.Epoch(), path)
	}
	return nil
}
