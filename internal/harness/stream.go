package harness

import (
	"fmt"
	"time"

	"graphmaze/internal/backend"
	"graphmaze/internal/ckpt"
	"graphmaze/internal/gen"
	"graphmaze/internal/graph"
	"graphmaze/internal/native"
	"graphmaze/internal/par"
)

// Stream is the DESIGN.md §14 experiment: the paper benchmarks static
// graphs, but the datasets it warns about (social networks, web crawls)
// grow continuously. This experiment measures the update-latency /
// staleness tradeoff of the epoch-versioned graph: each delta batch is
// ingested into a new immutable epoch (readers of epoch N never block),
// then the incremental kernels — PageRank warm-started from epoch N's
// ranks, BFS and connected components repairing from the delta's
// vertices — are timed against full recomputation on the same epoch.
// Staleness is the wall time from a batch's arrival until results again
// reflect the graph: ingest plus refresh. Every refresh is conformance-
// checked against the full recompute (bit-identical for BFS/CC, within
// tolerance for PageRank); each epoch is also persisted through the
// checkpoint subsystem's epoch store, charging its storage cost model.
//
// -deltas overrides the number of batches; -scale the base graph.
func Stream(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.Scale
	if scale == 0 {
		scale = 13
		if opt.Quick {
			scale = 10
		}
	}
	batches := opt.Deltas
	if batches == 0 {
		batches = 8
		if opt.Quick {
			batches = 3
		}
	}

	// Base graph: the BFS-style symmetrized RMAT input.
	edges, err := gen.RMAT(gen.Graph500Config(scale, 16, 97))
	if err != nil {
		return err
	}
	b := graph.NewBuilder(uint32(1) << scale)
	b.AddEdges(edges)
	base, err := b.Build(graph.BuildOptions{Orientation: graph.Symmetrize, Dedup: true,
		DropSelfLoops: true, SortAdjacency: true})
	if err != nil {
		return err
	}
	v, err := graph.NewVersioned(base, graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true})
	if err != nil {
		return err
	}

	// Delta stream: a second RMAT draw over the same vertex space, sliced
	// into batches — skew-matched updates, the way these graphs grow.
	deltaEdges, err := gen.RMAT(gen.Graph500Config(scale, 2, 98))
	if err != nil {
		return err
	}
	perBatch := len(deltaEdges) / batches
	if perBatch == 0 {
		return fmt.Errorf("stream: %d delta edges cannot fill %d batches", len(deltaEdges), batches)
	}

	record := func(algo string, seconds float64) {
		if opt.rec == nil {
			return
		}
		*opt.rec = append(*opt.rec, RunRecord{Engine: "Native", Algo: algo, Nodes: 1, Seconds: seconds})
	}

	// One pool for the whole run: the incremental kernels and the
	// full-recompute baselines all borrow it. The run carries the three
	// result vectors from epoch to epoch itself, as graphserve does.
	pool := par.NewPool(0)
	defer pool.Close()
	const jump, tol, maxSweeps = 0.3, 1e-9, 1000
	src := bfsSource(base)
	store := ckpt.NewEpochStore(ckpt.Config{})

	// Prime on epoch 0 (the cold start both modes share).
	g0 := v.Current().CSR()
	in0 := backend.FromCSR(g0.Transpose())
	ranks, _, err := native.WarmPageRank(pool, in0, g0.OutDegrees(), jump, tol, maxSweeps, nil)
	if err != nil {
		return err
	}
	dist, _ := native.BFS(pool, backend.FromCSR(g0), in0, src, "native.bfs.level", nil)
	labels := native.ConnectedComponentsInto(in0, make([]uint32, g0.NumVertices), nil)
	if _, _, err := store.Save(v.Current(), 1); err != nil {
		return err
	}

	fmt.Fprintf(opt.Out, "epoch stream (scale %d base: %d vertices / %d edges; %d batches of ~%d raw edges; BFS source %d):\n",
		scale, base.NumVertices, base.NumEdges(), batches, perBatch, src)
	tw := &tableWriter{header: []string{"Epoch", "Added", "Ingest", "PR inc", "PR full", "BFS inc", "BFS full", "CC inc", "CC full", "Stale inc", "Stale full", "Conformance"}}

	var incStale, fullStale []float64
	var prSpeed, bfsSpeed, ccSpeed []float64
	var persisted int64
	var persistCost float64
	for i := 0; i < batches; i++ {
		batch := deltaEdges[i*perBatch : (i+1)*perBatch]

		start := time.Now()
		snap, added, stats, err := v.ApplyDelta(batch)
		if err != nil {
			return err
		}
		ingest := time.Since(start).Seconds()

		// The refresh clocks cover what each refresh needs built: PageRank
		// pays for the epoch's transpose and out-degrees; CC floods that
		// same in-edge matrix without paying for it again, and so do the
		// full BFS and CC below.
		start = time.Now()
		in := backend.FromCSR(snap.CSR().Transpose())
		if ranks, _, err = native.WarmPageRank(pool, in, snap.CSR().OutDegrees(), jump, tol, maxSweeps, ranks); err != nil {
			return err
		}
		prInc := time.Since(start).Seconds()
		start = time.Now()
		dist = native.RepairBFS(backend.FromSnapshot(snap), dist, added)
		bfsInc := time.Since(start).Seconds()
		start = time.Now()
		labels = native.RepairCC(in, labels, added)
		ccInc := time.Since(start).Seconds()

		// Full recomputation on the same epoch, for the staleness a
		// non-incremental system would pay (and the conformance reference).
		start = time.Now()
		refRanks, _ := native.PageRank(pool, backend.FromCSR(snap.CSR().Transpose()), snap.CSR().OutDegrees(),
			jump, tol, maxSweeps, nil)
		prFull := time.Since(start).Seconds()
		start = time.Now()
		refDist, _ := native.BFS(pool, backend.FromSnapshot(snap), in, src, "native.bfs.level", nil)
		bfsFull := time.Since(start).Seconds()
		start = time.Now()
		refLabels := native.ConnectedComponentsInto(in, make([]uint32, snap.NumVertices()), nil)
		ccFull := time.Since(start).Seconds()

		verdict := streamVerdict(ranks, refRanks, dist, refDist, labels, refLabels)

		bytes, cost, err := store.Save(snap, 1)
		if err != nil {
			return err
		}
		persisted += bytes
		persistCost += cost

		si := ingest + prInc + bfsInc + ccInc
		sf := ingest + prFull + bfsFull + ccFull
		incStale = append(incStale, si)
		fullStale = append(fullStale, sf)
		if prInc > 0 {
			prSpeed = append(prSpeed, prFull/prInc)
		}
		if bfsInc > 0 {
			bfsSpeed = append(bfsSpeed, bfsFull/bfsInc)
		}
		if ccInc > 0 {
			ccSpeed = append(ccSpeed, ccFull/ccInc)
		}
		record(fmt.Sprintf("Stream/ingest@%d", snap.Epoch()), ingest)
		record(fmt.Sprintf("Stream/pr-inc@%d", snap.Epoch()), prInc)
		record(fmt.Sprintf("Stream/pr-full@%d", snap.Epoch()), prFull)
		record(fmt.Sprintf("Stream/bfs-inc@%d", snap.Epoch()), bfsInc)
		record(fmt.Sprintf("Stream/bfs-full@%d", snap.Epoch()), bfsFull)
		record(fmt.Sprintf("Stream/cc-inc@%d", snap.Epoch()), ccInc)
		record(fmt.Sprintf("Stream/cc-full@%d", snap.Epoch()), ccFull)

		tw.addRow(fmt.Sprintf("%d", snap.Epoch()), fmt.Sprintf("%d", stats.Added),
			formatSeconds(ingest), formatSeconds(prInc), formatSeconds(prFull),
			formatSeconds(bfsInc), formatSeconds(bfsFull),
			formatSeconds(ccInc), formatSeconds(ccFull),
			formatSeconds(si), formatSeconds(sf), verdict)
	}
	tw.write(opt.Out)

	speedups := make([]float64, len(incStale))
	for i := range incStale {
		if incStale[i] > 0 {
			speedups[i] = fullStale[i] / incStale[i]
		}
	}
	fmt.Fprintf(opt.Out, "staleness = ingest + refresh; incremental refresh cuts it %.1fx (geomean) vs recompute-per-epoch\n",
		geomean(speedups))
	fmt.Fprintf(opt.Out, "per-kernel refresh speedup (geomean): PageRank %.1fx (bounded by the per-epoch transpose), BFS %.0fx, CC %.0fx\n",
		geomean(prSpeed), geomean(bfsSpeed), geomean(ccSpeed))
	fmt.Fprintf(opt.Out, "epoch persistence: %d epochs, %s total, %s modeled write cost (ckpt storage model, 1 node)\n",
		batches+1, formatBytes(persisted), formatSeconds(persistCost))
	fmt.Fprintln(opt.Out, "conformance compares every refresh against full recomputation on the same epoch:\n"+
		"BFS and CC must be bit-identical, PageRank within convergence tolerance")
	return nil
}

// streamVerdict checks a refresh against the full-recompute reference.
func streamVerdict(ranks, refRanks []float64, dist, refDist []int32, labels, refLabels []uint32) string {
	if len(dist) != len(refDist) || len(labels) != len(refLabels) || len(ranks) != len(refRanks) {
		return "LENGTH MISMATCH"
	}
	for i := range dist {
		if dist[i] != refDist[i] {
			return fmt.Sprintf("BFS DIFFERS at %d", i)
		}
	}
	for i := range labels {
		if labels[i] != refLabels[i] {
			return fmt.Sprintf("CC DIFFERS at %d", i)
		}
	}
	for i := range ranks {
		d := ranks[i] - refRanks[i]
		if d < -1e-6 || d > 1e-6 {
			return fmt.Sprintf("PR DIFFERS at %d", i)
		}
	}
	return "ok"
}
