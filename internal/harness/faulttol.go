package harness

import (
	"fmt"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/fault"
	"graphmaze/internal/giraph"
	"graphmaze/internal/native"
)

// FaultTolerance is the DESIGN.md §10 experiment: the paper's frameworks
// all pay for fault tolerance (Giraph checkpoints supersteps, GraphLab
// snapshots), but the paper benchmarks them with it disabled. This
// experiment quantifies what the maze leaves out, on the simulated
// cluster's cost model:
//
//  1. Checkpoint overhead: PageRank runtime vs checkpoint interval,
//     fault-free, for the native and Giraph engines.
//  2. Recovery cost: a node crash injected at increasing depths, with
//     the recovery driver rolling back to the last checkpoint and
//     replaying. Output is verified bit-identical to the fault-free run.
//
// -faults overrides the injected plan (fault.ParsePlan grammar) and
// -ckpt-interval the recovery runs' checkpoint interval.
func FaultTolerance(opt Options) error {
	opt = opt.withDefaults()
	scale := opt.scale(12, 9)
	nodes := 4
	if len(opt.Nodes) > 0 {
		nodes = opt.Nodes[0]
	}
	in, err := buildInputs(scale, 51)
	if err != nil {
		return err
	}

	type engineRun struct {
		name string
		run  func(cfg *cluster.Config) (ranks []float64, rep cluster.Report, err error)
	}
	engs := []engineRun{
		{"Native", func(cfg *cluster.Config) ([]float64, cluster.Report, error) {
			res, err := native.New().PageRank(in.pr, core.PageRankOptions{
				Iterations: opt.Iterations, Exec: core.Exec{Cluster: cfg, Trace: opt.Trace}})
			if err != nil {
				return nil, cluster.Report{}, err
			}
			return res.Ranks, res.Stats.Report, nil
		}},
		{"Giraph", func(cfg *cluster.Config) ([]float64, cluster.Report, error) {
			res, err := giraph.New().PageRank(in.pr, core.PageRankOptions{
				Iterations: opt.Iterations, Exec: core.Exec{Cluster: cfg, Trace: opt.Trace}})
			if err != nil {
				return nil, cluster.Report{}, err
			}
			return res.Ranks, res.Stats.Report, nil
		}},
	}
	record := func(eng, algo string, rep cluster.Report, err error) {
		if opt.rec == nil {
			return
		}
		rec := RunRecord{Engine: eng, Algo: algo, Nodes: nodes, Seconds: rep.SimulatedSeconds}
		if err != nil {
			rec.Error = err.Error()
		}
		if rep.SimulatedSeconds > 0 {
			r := rep
			rec.Report = &r
		}
		*opt.rec = append(*opt.rec, rec)
	}

	// Part 1: fault-free checkpoint-interval ablation. Interval 0 (off) is
	// the baseline each overhead percentage is relative to.
	intervals := []int{0, 1, 2, 4}
	if opt.Quick {
		intervals = []int{0, 2}
	}
	if opt.CkptInterval > 0 {
		seen := false
		for _, iv := range intervals {
			seen = seen || iv == opt.CkptInterval
		}
		if !seen {
			intervals = append(intervals, opt.CkptInterval)
		}
	}

	fmt.Fprintf(opt.Out, "checkpoint overhead (PageRank, %d iterations, %d nodes, scale %d):\n",
		opt.Iterations, nodes, scale)
	tw := &tableWriter{header: []string{"Engine", "Interval", "Runtime", "Ckpts", "Ckpt data", "Ckpt time", "Overhead"}}
	baselineRanks := map[string][]float64{}
	for _, eng := range engs {
		var base float64
		for _, interval := range intervals {
			ranks, rep, err := eng.run(&cluster.Config{Nodes: nodes,
				Ckpt: ckpt.Config{Interval: interval}})
			record(eng.name, fmt.Sprintf("PageRank/ckpt=%d", interval), rep, err)
			if err != nil {
				return fmt.Errorf("%s interval %d: %w", eng.name, interval, err)
			}
			if interval == 0 {
				base = rep.SimulatedSeconds
				baselineRanks[eng.name] = ranks
			}
			overhead := "-"
			if interval > 0 && base > 0 {
				overhead = fmt.Sprintf("+%.1f%%", 100*(rep.SimulatedSeconds-base)/base)
			}
			tw.addRow(eng.name, intervalLabel(interval), formatSeconds(rep.SimulatedSeconds),
				fmt.Sprintf("%d", rep.Checkpoints), cluster.FormatBytes(rep.CheckpointBytes),
				formatSeconds(rep.CheckpointSeconds), overhead)
		}
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "note: the checkpoint cost model charges a fixed per-write latency (HDFS-like), so overhead\n"+
		"percentages are steep at synthetic scales; the interval tradeoff is the meaningful shape")

	// Part 2: recovery cost. Either the user's plan or a crash-depth sweep:
	// the later the crash, the more phases replay (up to the interval).
	interval := opt.CkptInterval
	if interval == 0 {
		interval = 2
	}
	specs := []string{"crash@2:n1", "crash@5:n1", "crash@8:n1"}
	if opt.Quick {
		specs = specs[:2]
	}
	if opt.Faults != "" {
		specs = []string{opt.Faults}
	}

	fmt.Fprintf(opt.Out, "\nrecovery cost (checkpoint interval %d):\n", interval)
	tw = &tableWriter{header: []string{"Engine", "Faults", "Runtime", "Recoveries", "Replayed", "Recovery time", "Output"}}
	for _, eng := range engs {
		for _, spec := range specs {
			plan, err := fault.ParsePlan(spec)
			if err != nil {
				return fmt.Errorf("faulttol: -faults %q: %w", spec, err)
			}
			ranks, rep, err := eng.run(&cluster.Config{Nodes: nodes,
				Fault: plan, Ckpt: ckpt.Config{Interval: interval}})
			record(eng.name, fmt.Sprintf("PageRank/faults=%s", spec), rep, err)
			if err != nil {
				tw.addRow(eng.name, spec, "-", "-", "-", "-", "failed: "+err.Error())
				continue
			}
			verdict := outputVerdict(baselineRanks[eng.name], ranks)
			// Range faults (slow/degrade) apply without being consumed, so
			// only unfired one-shot events mean the plan never triggered.
			oneShotLeft := 0
			for _, e := range plan.Events() {
				if e.Kind == fault.Crash || e.Kind == fault.Drop || e.Kind == fault.Truncate {
					oneShotLeft++
				}
			}
			if len(plan.Fired()) == 0 && oneShotLeft > 0 {
				verdict += " (fault not reached)"
			}
			tw.addRow(eng.name, spec, formatSeconds(rep.SimulatedSeconds),
				fmt.Sprintf("%d", rep.Recoveries), fmt.Sprintf("%d", rep.ReplayedPhases),
				formatSeconds(rep.RecoverySeconds), verdict)
		}
	}
	tw.write(opt.Out)
	fmt.Fprintln(opt.Out, "output column compares against the fault-free run bit-for-bit: recovery must not change results")
	return nil
}

func intervalLabel(interval int) string {
	if interval == 0 {
		return "off"
	}
	return fmt.Sprintf("%d", interval)
}

// outputVerdict reports whether the recovered run's output matches the
// fault-free baseline exactly (the subsystem's determinism contract).
func outputVerdict(want, got []float64) string {
	if len(want) == 0 || len(got) != len(want) {
		return "?"
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("DIFFERS at %d", i)
		}
	}
	return "identical"
}
