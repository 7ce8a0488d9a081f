package harness

import (
	"fmt"

	"graphmaze"
	"graphmaze/internal/cluster"
	"graphmaze/internal/native"
	"graphmaze/internal/socialite"
)

// Table4 reproduces the native-efficiency table: for each algorithm, the
// single-node bottleneck (memory bandwidth) with achieved efficiency
// against the host's measured ceiling, and the 4-node bottleneck
// (memory vs network) with achieved efficiency against the respective
// limit.
func Table4(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.Scale
	if scale == 0 {
		scale = 14
		if opt.Quick {
			scale = 10
		}
	}
	in, err := buildInputs(scale, 11)
	if err != nil {
		return err
	}
	peak := hostPeakBandwidth()
	eng := native.New()

	// Analytic bytes-touched models for the single-node kernels.
	bytesMoved := func(algo Algo, iterations int) float64 {
		switch algo {
		case PR:
			// Per iteration: edge scan (4B id + 8B contribution read) plus
			// vertex state traffic.
			return float64(iterations) * (float64(in.pr.NumEdges())*12 + float64(in.pr.NumVertices)*24)
		case BFS:
			// Each edge inspected about twice (top-down + bottom-up mix).
			return float64(in.bfs.NumEdges())*8 + float64(in.bfs.NumVertices)*8
		case TC:
			var sum float64
			for v := uint32(0); v < in.tc.NumVertices; v++ {
				dv := float64(in.tc.Degree(v))
				sum += dv * dv * 4
				for _, u := range in.tc.Neighbors(v) {
					sum += float64(in.tc.Degree(u)) * 4
				}
			}
			return sum
		case CF:
			return float64(opt.Iterations) * float64(in.cf.NumRatings()) * 8 * 16
		}
		return 0
	}

	tw := &tableWriter{header: []string{"Algorithm", "1-node limit", "achieved", "eff%", "4-node limit", "eff%"}}
	for _, algo := range Algos() {
		single := runOne(opt, eng, algo, in, 1, opt.Iterations)
		if single.err != nil {
			return single.err
		}
		total := single.seconds
		if algo == PR || algo == CF {
			total *= float64(opt.Iterations)
		}
		achieved := bytesMoved(algo, opt.Iterations) / total
		if achieved > peak {
			// Cache-resident inputs can exceed the DRAM triad ceiling;
			// clamp so the efficiency column stays interpretable.
			achieved = peak
		}
		eff := 100 * achieved / peak

		multi := runOne(opt, eng, algo, in, 4, opt.Iterations)
		if multi.err != nil {
			return multi.err
		}
		rep := multi.report
		bottleneck := "Memory BW"
		var multiEff float64
		if rep.NetworkSeconds > rep.ComputeSeconds {
			bottleneck = "Network BW"
			multiEff = 100 * rep.PeakNetworkBandwidth / cluster.MPI().Bandwidth
		} else if rep.ComputeSeconds > 0 {
			multiEff = 100 * (bytesMoved(algo, opt.Iterations) / 4 / rep.ComputeSeconds) / peak
		}
		if multiEff > 100 {
			multiEff = 100
		}
		tw.addRow(algo.String(), "Memory BW",
			fmt.Sprintf("%.1f GB/s", achieved/1e9),
			fmt.Sprintf("%.0f", min(eff, 100)),
			bottleneck, fmt.Sprintf("%.0f", multiEff))
	}
	fmt.Fprintf(opt.Out, "host memory-bandwidth ceiling (triad): %.1f GB/s; modeled network peak: %.1f GB/s\n",
		peak/1e9, cluster.MPI().Bandwidth/1e9)
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper: single-node 52–92% of memory BW; 4-node PR/TC network-bound ~40%, BFS/CF memory-bound 41–63%")
	return nil
}

// slowdownTable runs every engine × algorithm at the given node count and
// prints slowdown factors relative to native, as Tables 5 and 6 do.
func slowdownTable(opt Options, nodes int, seeds []int64, scale int) error {
	type cell struct{ ratios []float64 }
	cells := map[string]map[Algo]*cell{}
	engs := graphmaze.Engines()
	for _, e := range engs {
		cells[e.Name()] = map[Algo]*cell{}
		for _, a := range Algos() {
			cells[e.Name()][a] = &cell{}
		}
	}

	for _, seed := range seeds {
		in, err := buildInputs(scale, seed)
		if err != nil {
			return err
		}
		for _, algo := range Algos() {
			base := runOne(opt, engs[0], algo, in, nodes, opt.Iterations)
			if base.err != nil {
				return fmt.Errorf("native %v: %w", algo, base.err)
			}
			for _, e := range engs[1:] {
				if nodes > 1 && !e.Capabilities().MultiNode {
					continue
				}
				m := runOne(opt, e, algo, in, nodes, opt.Iterations)
				if m.err != nil {
					continue // recorded as a gap (e.g. CombBLAS OOM)
				}
				if base.seconds > 0 {
					cells[e.Name()][algo].ratios = append(cells[e.Name()][algo].ratios, m.seconds/base.seconds)
				}
			}
		}
	}

	tw := &tableWriter{header: []string{"Algorithm", "CombBLAS", "GraphLab", "SociaLite", "Giraph", "Galois"}}
	for _, algo := range Algos() {
		row := []string{algo.String()}
		for _, name := range []string{"CombBLAS", "GraphLab", "SociaLite", "Giraph", "Galois"} {
			c := cells[name][algo]
			if len(c.ratios) == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", geomean(c.ratios)))
		}
		tw.addRow(row...)
	}
	tw.write(opt.Out)
	return nil
}

// Table5 reproduces the single-node slowdown summary.
func Table5(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.Scale
	if scale == 0 {
		scale = 12
		if opt.Quick {
			scale = 9
		}
	}
	seeds := []int64{21, 22, 23}
	if opt.Quick {
		seeds = seeds[:1]
	}
	if err := slowdownTable(opt, 1, seeds, scale); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper (Table 5): PR 1.9/3.6/2.0/39/1.2 · BFS 2.5/9.3/7.3/568/1.1 · CF 3.5/5.1/5.8/54/1.1 · TC 34/3.2/4.7/484/2.5")
	return nil
}

// Table6 reproduces the multi-node slowdown summary (4 nodes: the largest
// square count shared by every framework's constraints at default scale).
func Table6(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.Scale
	if scale == 0 {
		scale = 12
		if opt.Quick {
			scale = 9
		}
	}
	seeds := []int64{31, 32}
	if opt.Quick {
		seeds = seeds[:1]
	}
	if err := slowdownTable(opt, 4, seeds, scale); err != nil {
		return err
	}
	fmt.Fprintln(opt.Out, "paper (Table 6): PR 2.5/12.1/7.9/74 · BFS 7.1/29.5/18.9/494 · CF 3.5/7.1/7.0/88 · TC 13.1/3.6/1.5/54")
	return nil
}

// Table7 reproduces the SociaLite before/after network optimization
// comparison on the network-bound algorithms (PageRank and triangle
// counting, 4 nodes).
func Table7(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.Scale
	if scale == 0 {
		scale = 12
		if opt.Quick {
			scale = 9
		}
	}
	in, err := buildInputs(scale, 17)
	if err != nil {
		return err
	}
	before := socialite.NewUnoptimized()
	after := socialite.New()

	tw := &tableWriter{header: []string{"Algorithm", "Before", "After", "Speedup"}}
	for _, algo := range []Algo{PR, TC} {
		b := runOne(opt, before, algo, in, 4, opt.Iterations)
		if b.err != nil {
			return b.err
		}
		a := runOne(opt, after, algo, in, 4, opt.Iterations)
		if a.err != nil {
			return a.err
		}
		tw.addRow(algo.String(), formatSeconds(b.seconds), formatSeconds(a.seconds),
			fmt.Sprintf("%.1f×", b.seconds/a.seconds))
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "paper (Table 7): PageRank 4.6s→1.9s (2.4×), Triangle Counting 7.6s→4.9s (1.6×)")
	return nil
}
