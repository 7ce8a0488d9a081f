package harness

import (
	"fmt"
	"strings"

	"graphmaze"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/datasets"
	"graphmaze/internal/gen"
	"graphmaze/internal/giraph"
	"graphmaze/internal/native"
)

// datasetInputs builds the input bundle from a named dataset preset (graph
// presets pair with the synthetic CF set of matching scale).
func datasetInputs(name string, quick bool) (inputs, error) {
	var in inputs
	p, err := datasets.ByName(name)
	if err != nil {
		return in, err
	}
	if quick {
		p = p.WithScale(9)
	}
	if p.Ratings {
		if in.cf, err = p.BuildRatings(); err != nil {
			return in, err
		}
		return in, nil
	}
	if in.pr, err = p.Build(datasets.PrepPageRank); err != nil {
		return in, err
	}
	if in.bfs, err = p.Build(datasets.PrepBFS); err != nil {
		return in, err
	}
	if in.tc, err = p.Build(datasets.PrepTriangle); err != nil {
		return in, err
	}
	return in, nil
}

// Figure3 reproduces the single-node per-dataset runtime panels: PageRank
// and CF report time per iteration, BFS and TC overall time (log-scale in
// the paper; absolute numbers here).
func Figure3(opt Options) error {
	opt = opt.withDefaults()
	graphSets := []string{"livejournal", "facebook", "wikipedia", "graph500"}
	ratingSets := []string{"netflix"}
	if opt.Quick {
		graphSets = graphSets[:2]
	}
	engs := graphmaze.Engines()

	for _, algo := range []Algo{PR, BFS, TC} {
		fmt.Fprintf(opt.Out, "-- %s (single node) --\n", algo)
		tw := &tableWriter{header: append([]string{"dataset"}, engineNames(engs)...)}
		for _, ds := range graphSets {
			in, err := datasetInputs(ds, opt.Quick)
			if err != nil {
				return err
			}
			row := []string{ds}
			for _, e := range engs {
				m := runOne(opt, e, algo, in, 1, opt.Iterations)
				if m.err != nil {
					row = append(row, "err")
					continue
				}
				row = append(row, formatSeconds(m.seconds))
			}
			tw.addRow(row...)
		}
		tw.write(opt.Out)
	}

	fmt.Fprintln(opt.Out, "-- CollabFilter (single node, time/iteration) --")
	tw := &tableWriter{header: append([]string{"dataset"}, engineNames(engs)...)}
	for _, ds := range append(ratingSets, "synthetic") {
		var in inputs
		var err error
		if ds == "synthetic" {
			scale := 12
			if opt.Quick {
				scale = 9
			}
			in.cf, err = gen.Ratings(gen.DefaultRatingsConfig(scale, 16, 99))
		} else {
			in, err = datasetInputs(ds, opt.Quick)
		}
		if err != nil {
			return err
		}
		row := []string{ds}
		for _, e := range engs {
			m := runOne(opt, e, CF, in, 1, opt.Iterations)
			if m.err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, formatSeconds(m.seconds))
		}
		tw.addRow(row...)
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper shape: Native fastest; Galois ≈1.1–2.5×; CombBLAS/GraphLab/SociaLite 2–9×; Giraph 2–3 orders")
	return nil
}

func engineNames(engs []core.Engine) []string {
	out := make([]string, len(engs))
	for i, e := range engs {
		out[i] = e.Name()
	}
	return out
}

// Figure4 reproduces the weak-scaling panels: edges per node held
// constant, node counts swept; flat lines mean perfect scaling.
func Figure4(opt Options) error {
	opt = opt.withDefaults()
	nodes := opt.Nodes
	if nodes == nil {
		nodes = []int{1, 4, 16}
		if opt.Quick {
			nodes = []int{1, 4}
		}
	}
	baseScale := opt.scale(9, 8)
	engs := graphmaze.Engines()

	for _, algo := range Algos() {
		fmt.Fprintf(opt.Out, "-- %s (weak scaling, constant edges/node) --\n", algo)
		tw := &tableWriter{header: append([]string{"nodes"}, engineNames(engs)...)}
		for _, n := range nodes {
			// Weak scaling: total edges grow with the node count so edges
			// per node stay constant (scale + log2(n) for powers of two).
			scale := baseScale
			for p := n; p > 1; p >>= 1 {
				scale++
			}
			in, err := buildInputs(scale, int64(40+n))
			if err != nil {
				return err
			}
			row := []string{fmt.Sprintf("%d", n)}
			for _, e := range engs {
				if n > 1 && !e.Capabilities().MultiNode {
					row = append(row, "n/a")
					continue
				}
				if e.Name() == "CombBLAS" && !isSquare(n) {
					row = append(row, "non-sq")
					continue
				}
				m := runOne(opt, e, algo, in, n, opt.Iterations)
				if m.err != nil {
					row = append(row, "err")
					continue
				}
				row = append(row, formatSeconds(m.seconds))
			}
			tw.addRow(row...)
		}
		tw.write(opt.Out)
	}
	fmt.Fprintln(opt.Out, "paper shape: native nearly flat; framework gaps widen with node count (network-bound)")
	return nil
}

func isSquare(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}

// Figure5 reproduces the large real-world multi-node runs: Twitter
// (PageRank, BFS on 4 nodes; TC on 16 nodes) and Yahoo Music (CF on 4
// nodes).
func Figure5(opt Options) error {
	opt = opt.withDefaults()
	engs := graphmaze.Engines()

	rows := []struct {
		label string
		ds    string
		algo  Algo
		nodes int
	}{
		{"Pagerank (Twitter, 4 nodes)", "twitter", PR, 4},
		{"BFS (Twitter, 4 nodes)", "twitter", BFS, 4},
		{"Collaborative Filt. (Yahoo Music, 4 nodes)", "yahoomusic", CF, 4},
		{"Triangle Count. (Twitter, 16 nodes)", "twitter", TC, 16},
	}
	tw := &tableWriter{header: append([]string{"run"}, engineNames(engs)...)}
	for _, r := range rows {
		in, err := datasetInputs(r.ds, opt.Quick)
		if err != nil {
			return err
		}
		row := []string{r.label}
		for _, e := range engs {
			if !e.Capabilities().MultiNode {
				row = append(row, "n/a")
				continue
			}
			m := runOne(opt, e, r.algo, in, r.nodes, opt.Iterations)
			if m.err != nil {
				row = append(row, "OOM/err")
				continue
			}
			row = append(row, formatSeconds(m.seconds))
		}
		tw.addRow(row...)
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper shape: CombBLAS OOMs on Twitter TC; Giraph 2–3 orders off; SociaLite best framework for TC")
	return nil
}

// Figure6 reproduces the system-metric panels for 4-node runs: CPU
// utilization, peak network bandwidth, memory footprint and bytes sent,
// normalized as in the paper.
func Figure6(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(12, 9)
	in, err := buildInputs(scale, 55)
	if err != nil {
		return err
	}
	engs := graphmaze.Engines()[:5] // Galois has no multi-node runs
	for _, algo := range Algos() {
		fmt.Fprintf(opt.Out, "-- %s (4 nodes) --\n", algo)
		var labels []string
		var reports []cluster.Report
		for _, e := range engs {
			m := runOne(opt, e, algo, in, 4, opt.Iterations)
			if m.err != nil {
				continue
			}
			labels = append(labels, e.Name())
			reports = append(reports, m.report)
		}
		fmt.Fprint(opt.Out, formatTable(labels, reports, cluster.MPI().Bandwidth))
	}
	fmt.Fprintln(opt.Out, "paper shape: Giraph lowest CPU util (~16%) and lowest peak BW, highest bytes sent; native/CombBLAS highest peak BW")
	return nil
}

// formatTable renders labeled reports as the normalized four-metric table
// of Figure 6. Values are percentages of: full CPU, the reference peak
// bandwidth, node memory capacity, and the largest byte count among rows.
func formatTable(labels []string, reports []cluster.Report, refBandwidth float64) string {
	var maxBytes int64
	for _, r := range reports {
		if r.BytesSent > maxBytes {
			maxBytes = r.BytesSent
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %14s %12s %14s\n", "framework", "CPU util %", "peak net BW %", "memory %", "bytes sent %")
	for i, r := range reports {
		label := "?"
		if i < len(labels) {
			label = labels[i]
		}
		bwPct, memPct, sentPct := 0.0, 0.0, 0.0
		if refBandwidth > 0 {
			bwPct = 100 * r.PeakNetworkBandwidth / refBandwidth
		}
		memPct = 100 * r.MemoryFraction()
		if maxBytes > 0 {
			sentPct = 100 * float64(r.BytesSent) / float64(maxBytes)
		}
		fmt.Fprintf(&b, "%-12s %12.1f %14.1f %12.1f %14.1f\n",
			label, 100*r.CPUUtilization, bwPct, memPct, sentPct)
	}
	return b.String()
}

// Figure7 reproduces the native optimization ablation for PageRank and
// BFS. The stage stack mirrors the paper's bars; the data-layout stage
// stands in for software prefetch (Go exposes no prefetch intrinsics —
// DESIGN.md §3). The interconnect is charged at the 2.3 GB/s the paper
// itself measured for these exchanges (Table 4's 42% of peak), not the
// 5.5 GB/s hardware ceiling. Each stage is timed as the minimum of
// several runs.
func Figure7(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(15, 11)
	in, err := buildInputs(scale, 66)
	if err != nil {
		return err
	}
	// 16 nodes: the paper's message optimizations matter where the
	// boundary exchange, not local compute, dominates.
	const ablationNodes = 16
	achievedMPI := cluster.CommLayer{Name: "mpi-achieved", Bandwidth: 2.3e9, Latency: 2e-6}
	repeats := 5
	if opt.Quick {
		repeats = 2
	}
	type stage struct {
		label  string
		tuning native.Tuning
	}
	stagesFor := map[Algo][]stage{
		PR: {
			{"baseline", native.Tuning{}},
			{"+layout (s/w prefetch stand-in)", native.Tuning{ContribCaching: true}},
			{"+compression", native.Tuning{ContribCaching: true, Compression: true}},
			{"+overlap comp/comm", native.Tuning{ContribCaching: true, Compression: true, Overlap: true}},
		},
		BFS: {
			{"baseline", native.Tuning{}},
			{"+bit-vector visited", native.Tuning{Bitvector: true}},
			{"+compression", native.Tuning{Bitvector: true, Compression: true}},
			{"+overlap comp/comm", native.DefaultTuning()},
		},
	}
	for _, algo := range []Algo{PR, BFS} {
		fmt.Fprintf(opt.Out, "-- %s (native, %d nodes) --\n", algo, ablationNodes)
		tw := &tableWriter{header: []string{"stage", "time", "speedup", "net bytes", "traffic vs baseline"}}
		var base float64
		var baseBytes int64
		for _, st := range stagesFor[algo] {
			e := native.NewTuned(st.tuning)
			best := 0.0
			var bytes int64
			for rep := 0; rep < repeats; rep++ {
				exec := core.Exec{Cluster: &cluster.Config{Nodes: ablationNodes, Comm: achievedMPI}}
				var secs float64
				switch algo {
				case PR:
					res, err := e.PageRank(in.pr, core.PageRankOptions{Iterations: opt.Iterations, Exec: exec})
					if err != nil {
						return err
					}
					secs = res.Stats.WallSeconds / float64(opt.Iterations)
					bytes = res.Stats.Report.BytesSent
				case BFS:
					res, err := e.BFS(in.bfs, core.BFSOptions{Source: bfsSource(in.bfs), Exec: exec})
					if err != nil {
						return err
					}
					secs = res.Stats.WallSeconds
					bytes = res.Stats.Report.BytesSent
				}
				if best == 0 || secs < best {
					best = secs
				}
			}
			if base == 0 {
				base = best
				baseBytes = bytes
			}
			tw.addRow(st.label, formatSeconds(best), fmt.Sprintf("%.2fX", base/best),
				cluster.FormatBytes(bytes), fmt.Sprintf("%.1fX less", float64(baseBytes)/float64(bytes)))
		}
		tw.write(opt.Out)
	}
	fmt.Fprintln(opt.Out, "paper (Fig 7): PR total ~8x, BFS total ~18x from prefetch + compression + overlap (+ bit-vector for BFS)")
	return nil
}

// TriangleBitvectorAblation reproduces the §6.1.2 claim that the
// bit-vector data structure gives triangle counting ≈2.2×.
func TriangleBitvectorAblation(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(13, 10)
	in, err := buildInputs(scale, 77)
	if err != nil {
		return err
	}
	with := runOne(opt, native.New(), TC, in, 1, 1)
	without := runOne(opt, native.NewTuned(native.Tuning{ContribCaching: true, Compression: true, Overlap: true}), TC, in, 1, 1)
	if with.err != nil {
		return with.err
	}
	if without.err != nil {
		return without.err
	}
	fmt.Fprintf(opt.Out, "merge-intersect: %s   bit-vector: %s   speedup: %.2f× (paper: ≈2.2×)\n",
		formatSeconds(without.seconds), formatSeconds(with.seconds), without.seconds/with.seconds)
	return nil
}

// GiraphPhasedSupersteps reproduces the §6.1.3 memory mitigation: phased
// supersteps bound Giraph's buffered-message footprint.
func GiraphPhasedSupersteps(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(11, 9)
	in, err := buildInputs(scale, 88)
	if err != nil {
		return err
	}
	tw := &tableWriter{header: []string{"configuration", "TC peak memory", "CF peak memory"}}
	for _, cfg := range []struct {
		label string
		e     core.Engine
	}{
		{"monolithic supersteps", giraph.NewUnsplit()},
		{"100 phased supersteps", giraph.New()},
	} {
		tc := runOne(opt, cfg.e, TC, in, 4, opt.Iterations)
		if tc.err != nil {
			return tc.err
		}
		cf := runOne(opt, cfg.e, CF, in, 4, opt.Iterations)
		if cf.err != nil {
			return cf.err
		}
		tw.addRow(cfg.label, cluster.FormatBytes(tc.report.MemoryFootprintBytes), cluster.FormatBytes(cf.report.MemoryFootprintBytes))
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper: splitting supersteps was the only way Giraph TC completed at all (§6.1.3)")
	return nil
}

// SGDvsGD reproduces the §3.2 observation that SGD converges in far fewer
// iterations than GD for a fixed RMSE target.
func SGDvsGD(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(11, 9)
	cf, err := gen.Ratings(gen.DefaultRatingsConfig(scale, 16, 123))
	if err != nil {
		return err
	}
	eng := native.New()
	const maxIters = 60
	run := func(method core.CFMethod) []float64 {
		res, err := eng.CollabFilter(cf, core.CFOptions{Method: method, K: 8, Iterations: maxIters, Seed: 5})
		if err != nil {
			return nil
		}
		return res.RMSE
	}
	sgd := run(core.SGD)
	gd := run(core.GradientDescent)
	if sgd == nil || gd == nil {
		return fmt.Errorf("harness: CF run failed")
	}
	// Target: the RMSE SGD reaches early in its budget.
	target := sgd[max(1, maxIters/20)]
	itersTo := func(tr []float64) int {
		for i, v := range tr {
			if v <= target {
				return i + 1
			}
		}
		return -1
	}
	si, gi := itersTo(sgd), itersTo(gd)
	gdStr := fmt.Sprintf("%d", gi)
	if gi < 0 {
		gdStr = fmt.Sprintf(">%d", maxIters)
		gi = maxIters
	}
	fmt.Fprintf(opt.Out, "RMSE target %.4f: SGD reaches it in %d iterations, GD in %s (ratio ≥%.0f×; paper reports ≈40× on Netflix)\n",
		target, si, gdStr, float64(gi)/float64(si))
	return nil
}

// GiraphRoadmap applies the paper's §6.2 recommendations for Giraph —
// message combiners and more workers per node — and measures how far they
// close the gap ("Boosting network bandwidth ... should make Giraph very
// competitive"; "Performance will also improve if we can run more workers
// per node").
func GiraphRoadmap(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(12, 9)
	in, err := buildInputs(scale, 91)
	if err != nil {
		return err
	}
	configs := []struct {
		label string
		e     core.Engine
	}{
		{"stock Giraph (4 workers, no combiners)", giraph.New()},
		{"§6.2 roadmap (24 workers + combiners)", giraph.NewImproved()},
		{"native reference", native.New()},
	}
	tw := &tableWriter{header: []string{"configuration", "PR time/iter", "PR bytes", "CPU util %", "BFS time"}}
	for _, cfg := range configs {
		pr := runOne(opt, cfg.e, PR, in, 4, opt.Iterations)
		if pr.err != nil {
			return pr.err
		}
		bfs := runOne(opt, cfg.e, BFS, in, 4, opt.Iterations)
		if bfs.err != nil {
			return bfs.err
		}
		tw.addRow(cfg.label, formatSeconds(pr.seconds),
			cluster.FormatBytes(pr.report.BytesSent),
			fmt.Sprintf("%.0f", 100*pr.report.CPUUtilization),
			formatSeconds(bfs.seconds))
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper §6.2: combiners shrink buffers/duplicated traffic; more workers lift the ~16% CPU ceiling")
	return nil
}
