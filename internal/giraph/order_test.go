package giraph

import (
	"fmt"
	"slices"
	"testing"

	"graphmaze/internal/ckpt"
	"graphmaze/internal/cluster"
	"graphmaze/internal/fault"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
)

// orderSends is what vertex v sends in superstep 0 of the order tests, in
// send order: one tagged message along each out-edge, then one more to a
// hub, so a slot often addresses one destination more than once.
func orderSends(g *graph.CSR, v uint32) (to []uint32, msgs []string) {
	for i, t := range g.Neighbors(v) {
		to, msgs = append(to, t), append(msgs, fmt.Sprintf("%d.%d", v, i))
	}
	return append(to, v%5), append(msgs, fmt.Sprintf("%d.hub", v))
}

// oracleInbox walks superstep 0 serially the way the runtime splits it —
// phases of the ascending active list, each node's owned part of a phase
// cut into EvenSplits ranges, slot node*workers+worker — and delivers in
// (phase, slot, send) order. With combine, each (phase, slot) first folds
// its messages per destination in send order and hands them over in
// ascending destination order.
func oracleInbox(g *graph.CSR, part *graph.Partition1D, nodes, phases, workers int, combine bool) [][]string {
	n := int(g.NumVertices)
	inbox := make([][]string, n)
	chunkSize := (n + phases - 1) / phases
	for lo := 0; lo < n; lo += chunkSize {
		hi := min(lo+chunkSize, n)
		for node := 0; node < nodes; node++ {
			a, b := lo, hi
			if part != nil {
				plo, phi := part.Range(node)
				a, b = max(a, int(plo)), min(b, int(phi))
			}
			if a >= b {
				continue
			}
			bounds := par.EvenSplits(b-a, workers)
			for w := 0; w < workers; w++ {
				combined := map[uint32]string{}
				for v := a + bounds[w]; v < a+bounds[w+1]; v++ {
					to, msgs := orderSends(g, uint32(v))
					for i, t := range to {
						switch old, ok := combined[t]; {
						case !combine:
							inbox[t] = append(inbox[t], msgs[i])
						case ok:
							combined[t] = old + "+" + msgs[i]
						default:
							combined[t] = msgs[i]
						}
					}
				}
				dests := make([]uint32, 0, len(combined))
				for t := range combined {
					dests = append(dests, t)
				}
				slices.Sort(dests)
				for _, t := range dests {
					inbox[t] = append(inbox[t], combined[t])
				}
			}
		}
	}
	return inbox
}

// TestSuperstepInboxOrderMatchesOracle: every vertex's superstep-1 inbox
// holds its messages in (phase, slot, send) order — the order stock
// PageRank and CF fold them in and checkpoints encode — on one node and on
// three, with and without a combiner.
func TestSuperstepInboxOrderMatchesOracle(t *testing.T) {
	g := fixtureDirected(t)
	const phases, workers = 7, 3
	for _, nodes := range []int{1, 3} {
		for _, combine := range []bool{false, true} {
			t.Run(fmt.Sprintf("nodes=%d/combine=%v", nodes, combine), func(t *testing.T) {
				got := make([][]string, g.NumVertices)
				job := &Job{
					Graph:           g,
					Init:            func(uint32) any { return nil },
					MaxSupersteps:   2,
					SplitSupersteps: phases,
					Workers:         workers,
					Compute: func(ctx *Context, messages []any) {
						if ctx.Superstep() == 0 {
							to, msgs := orderSends(g, ctx.ID())
							for i := range to {
								ctx.SendMessage(to[i], msgs[i])
							}
							return
						}
						for _, m := range messages {
							got[ctx.ID()] = append(got[ctx.ID()], m.(string))
						}
					},
				}
				if combine {
					job.Combiner = func(a, b any) any { return a.(string) + "+" + b.(string) }
				}
				var part *graph.Partition1D
				if nodes > 1 {
					c, err := cluster.New(cluster.Config{Nodes: nodes})
					if err != nil {
						t.Fatal(err)
					}
					job.Cluster = c
					if part, err = graph.NewPartition1D(g, nodes); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := Run(job); err != nil {
					t.Fatal(err)
				}
				want := oracleInbox(g, part, nodes, phases, workers, combine)
				for v := range want {
					if !slices.Equal(got[v], want[v]) {
						t.Fatalf("vertex %d inbox:\n got %q\nwant %q", v, got[v], want[v])
					}
				}
			})
		}
	}
}

// TestCounterSurvivesRollback: a custom job's AddToCounter total is the
// same with and without an injected crash. The crash lands mid-superstep,
// after two nodes of a phase have added to their partials, so the replay
// must not carry the failed attempt's partials.
func TestCounterSurvivesRollback(t *testing.T) {
	g := fixtureDirected(t)
	run := func(plan string) *Result {
		t.Helper()
		cfg := cluster.Config{Nodes: 4, Ckpt: ckpt.Config{Interval: 1}}
		var p *fault.Plan
		if plan != "" {
			var err error
			if p, err = fault.ParsePlan(plan); err != nil {
				t.Fatal(err)
			}
			cfg.Fault = p
		}
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Graph:           g,
			Init:            func(uint32) any { return float64(0) },
			MaxSupersteps:   4,
			SplitSupersteps: 3,
			Cluster:         c,
			Compute: func(ctx *Context, messages []any) {
				ctx.AddToCounter(int64(ctx.ID()) + int64(len(messages))*int64(ctx.Superstep()+1))
				ctx.SendMessageToAllEdges(float64(ctx.ID()))
			},
		}
		job.EncodeValue, job.DecodeValue = Float64Codec()
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil && len(p.Fired()) != 1 {
			t.Fatalf("fired = %v, want exactly the crash", p.Fired())
		}
		if rep := c.Report(); plan != "" && rep.Recoveries != 1 {
			t.Fatalf("Recoveries = %d, want 1", rep.Recoveries)
		}
		return res
	}
	base, crashed := run(""), run("crash@4:n2")
	if base.Counter == 0 || crashed.Counter != base.Counter {
		t.Errorf("counter after rollback = %d, want %d", crashed.Counter, base.Counter)
	}
	if crashed.Supersteps != base.Supersteps {
		t.Errorf("supersteps after rollback = %d, want %d", crashed.Supersteps, base.Supersteps)
	}
}
