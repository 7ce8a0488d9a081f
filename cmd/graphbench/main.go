// Command graphbench reproduces the tables and figures of "Navigating the
// Maze of Graph Analytics Frameworks using Massive Graph Datasets"
// (SIGMOD 2014).
//
// Usage:
//
//	graphbench -list
//	graphbench -exp table5
//	graphbench -exp fig4 -nodes 1,4,16,64 -scale 12
//	graphbench -exp all -quick
//	graphbench -exp table5 -trace t.json -json
//	graphbench -exp table5 -obs :8080          # curl http://localhost:8080/metrics
//	graphbench -exp table5 -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"graphmaze/internal/harness"
	"graphmaze/internal/obs"
	"graphmaze/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Int("scale", 0, "override the base RMAT scale (0 = experiment default)")
		nodes    = flag.String("nodes", "", "comma-separated node counts for scaling experiments")
		iters    = flag.Int("iters", 0, "iterations for iterative algorithms (0 = default)")
		quick    = flag.Bool("quick", false, "shrink inputs for a fast smoke run")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file (load in Perfetto) to this path")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report on stdout (tables move to stderr)")
		faults   = flag.String("faults", "", "fault plan for the faulttol experiment, e.g. 'crash@6:n1,degrade@0-3x4' or 'seed@42:c2'")
		ckptIv   = flag.Int("ckpt-interval", 0, "checkpoint interval in phases for faulttol recovery runs (0 = default)")
		deltas   = flag.Int("deltas", 0, "delta batches for the stream experiment (0 = default)")
		obsAddr  = flag.String("obs", "", "serve live metrics (Prometheus text, JSON, pprof) on this address, e.g. :8080")
		obsWait  = flag.Duration("obs-linger", 0, "keep the -obs listener alive this long after the run (for scraping a finished run)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		fmt.Println("  all          run everything")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opt := harness.Options{Out: os.Stdout, Scale: *scale, Iterations: *iters, Quick: *quick,
		Faults: *faults, CkptInterval: *ckptIv, Deltas: *deltas}
	if *jsonOut {
		// JSON owns stdout so pipelines stay parseable; tables go to stderr.
		opt.Out = os.Stderr
		opt.JSON = os.Stdout
	}
	// Observability and profiling all hang off the tracer's metrics
	// registry, so any of those flags implies tracing.
	if *traceOut != "" || *jsonOut || *obsAddr != "" || *cpuProf != "" || *memProf != "" {
		opt.Trace = trace.New()
	}
	var sampler *obs.Sampler
	var server *obs.Server
	if *obsAddr != "" {
		reg := opt.Trace.Registry()
		var err error
		server, err = obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphbench: obs listener:", err)
			os.Exit(1)
		}
		defer server.Close()
		sampler = obs.StartSampler(reg, obs.DefaultSampleInterval)
		fmt.Fprintf(os.Stderr, "graphbench: serving metrics on http://%s/metrics (pprof at /debug/pprof/)\n", server.Addr())
	}
	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "graphbench: cpuprofile:", err)
			}
		}()
	}
	if *nodes != "" {
		for _, part := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "graphbench: bad -nodes entry %q\n", part)
				os.Exit(2)
			}
			opt.Nodes = append(opt.Nodes, n)
		}
	}
	if err := harness.Run(*exp, opt); err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := opt.Trace.WriteChromeTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "graphbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "graphbench: wrote trace to %s (load at https://ui.perfetto.dev)\n", *traceOut)
	}
	if *memProf != "" {
		if err := obs.WriteHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "graphbench: memprofile:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "graphbench: wrote heap profile to %s\n", *memProf)
	}
	if server != nil && *obsWait > 0 {
		// Final runtime sample, then hold the listener open so the finished
		// run's histograms can still be scraped.
		sampler.Stop()
		fmt.Fprintf(os.Stderr, "graphbench: obs listener lingering %s on http://%s/\n", *obsWait, server.Addr())
		time.Sleep(*obsWait)
	} else {
		sampler.Stop()
	}
}
