package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"graphmaze"
)

// batchEnv holds the three prepared graphs of the paper's single-node
// table and Native's results, which every other engine must reproduce.
type batchEnv struct {
	engines []graphmaze.Engine
	prG     *graphmaze.Graph
	bfsG    *graphmaze.Graph
	tcG     *graphmaze.Graph
	hub     uint32

	refRanks []float64
	refDist  []int32
	refTri   int64
}

// prIterations is the PageRank length of a table cell.
const prIterations = 5

func setupBatch(seed int64, sz sizing) (*batchEnv, error) {
	env := &batchEnv{engines: graphmaze.Engines()}
	var err error
	if env.prG, err = graphmaze.Generate(graphmaze.Graph500{Scale: sz.batchScale, EdgeFactor: 16, Seed: seed}, graphmaze.ForPageRank); err != nil {
		return nil, err
	}
	if env.bfsG, err = graphmaze.Generate(graphmaze.Graph500{Scale: sz.batchScale, EdgeFactor: 16, Seed: seed + 1}, graphmaze.ForBFS); err != nil {
		return nil, err
	}
	if env.tcG, err = graphmaze.Generate(graphmaze.Graph500{Scale: sz.batchScale, EdgeFactor: 8, Seed: seed + 2}, graphmaze.ForTriangles); err != nil {
		return nil, err
	}
	env.hub = topHubs(env.bfsG, 1)[0]
	return env, nil
}

// cellName is the op kind of one engine × kernel cell.
func cellName(e graphmaze.Engine, kernel string) string {
	return strings.ToLower(e.Name()) + "." + kernel
}

// runCell runs one cell and checks its output: BFS distances and triangle
// counts are identical across engines, PageRank ranks agree with Native
// within the conformance tolerance (graphmaze_test.go). Native's first
// result becomes the reference.
func (b *batchEnv) runCell(e graphmaze.Engine, kernel string) error {
	switch kernel {
	case "pagerank":
		res, err := e.PageRank(b.prG, graphmaze.PageRankOptions{Iterations: prIterations})
		if err != nil {
			return err
		}
		if b.refRanks == nil {
			b.refRanks = res.Ranks
		}
		if len(res.Ranks) != len(b.refRanks) {
			return fmt.Errorf("%d ranks, native has %d", len(res.Ranks), len(b.refRanks))
		}
		for i, r := range res.Ranks {
			if math.Abs(r-b.refRanks[i]) > 1e-6*(1+b.refRanks[i]) || math.IsNaN(r) {
				return fmt.Errorf("rank[%d] = %v, native has %v", i, r, b.refRanks[i])
			}
		}
	case "bfs":
		res, err := e.BFS(b.bfsG, graphmaze.BFSOptions{Source: b.hub})
		if err != nil {
			return err
		}
		if b.refDist == nil {
			b.refDist = res.Distances
		}
		if !slices.Equal(res.Distances, b.refDist) {
			return fmt.Errorf("BFS distances differ from native's")
		}
	case "tc":
		res, err := e.TriangleCount(b.tcG, graphmaze.TriangleOptions{})
		if err != nil {
			return err
		}
		if b.refTri == 0 {
			b.refTri = res.Count
		}
		if res.Count != b.refTri {
			return fmt.Errorf("%d triangles, native has %d", res.Count, b.refTri)
		}
	}
	return nil
}

// runRounds runs every cell `rounds` times from one caller (the engines
// spread each kernel over the cores themselves), Native first in a round.
// between, if not nil, runs after every half round (the host probe's
// burst).
func (b *batchEnv) runRounds(rounds int, tr *tracer, res *clientResult, between func()) {
	cells := 0
	for r := 0; r < rounds; r++ {
		for _, e := range b.engines {
			for _, kernel := range kernelNames {
				if between != nil && cells > 0 && cells%(len(b.engines)*len(kernelNames)/2) == 0 {
					between()
				}
				cells++
				name := cellName(e, kernel)
				var err error
				ms := tr.timed("engine", name, func() { err = b.runCell(e, kernel) })
				res.Attempted++
				if err != nil {
					res.fail("%s: %v", name, err)
					continue
				}
				res.Lat[name] = append(res.Lat[name], int64(ms*1e6))
			}
		}
	}
}

func runBatchPass(o passOpts) (*passResult, error) {
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()
	host.burst()
	setupStart := time.Now()
	env, err := setupBatch(o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	// One untimed run of every cell, as the serve workloads warm every
	// target; it also fixes Native's results as the reference.
	warm := clientResult{Lat: make(map[string][]int64)}
	env.runRounds(1, nil, &warm, nil)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("warm-up: %v", warm.Notes)
	}
	res := &passResult{SetupS: time.Since(setupStart).Seconds()}
	res.Lat = make(map[string][]int64)

	phase := startPhase(host)
	env.runRounds(o.sz.batchRounds, o.tr, &res.clientResult, phase.between)
	phase.stop(res)
	runtime.KeepAlive(env) // the graphs are part of retained_mb
	return res, nil
}
