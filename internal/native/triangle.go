package native

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"

	"graphmaze/internal/backend"
	"graphmaze/internal/bitvec"
	"graphmaze/internal/cluster"
	"graphmaze/internal/codec"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/par"
	"graphmaze/internal/trace"
)

// TriangleCount implements core.Engine over an acyclically oriented graph
// with sorted adjacency: each vertex intersects its out-list with its
// out-neighbours' out-lists (eq. 3 counts every triangle i<j<k once).
func (e *Engine) TriangleCount(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	opt, err := core.CheckTriangleInput(g, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return e.triangleCluster(g, opt)
	}
	var count int64
	stats := opt.Exec.Local(func(pool *par.Pool, _ *trace.Tracer) int {
		count = triangles(pool, g, g.Offsets, e.tuning.Bitvector)
		return 1
	})
	return &core.TriangleResult{Count: count, Stats: stats}, nil
}

// triangleGrain is the dynamic chunk size for the per-vertex triangle
// loop. Per-vertex cost is ~deg² — the worst case for static chunking on
// a power-law graph, where one hub-owning chunk serializes the whole
// count — so chunks are small and claimed off a shared counter.
const triangleGrain = 64

// TriangleCountSymmetrized counts the triangles of a symmetrized graph
// with sorted adjacency on the caller's pool. Keeping only each vertex's
// neighbours above itself is exactly the acyclic orientation
// TriangleCount's input stores, so one binary search per row finds where
// that half starts and the count is the oriented kernel's.
func TriangleCountSymmetrized(pool *par.Pool, g *graph.CSR) int64 {
	first := make([]int64, g.NumVertices)
	backend.NewDense(pool, len(first), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			above, _ := slices.BinarySearch(g.Neighbors(uint32(v)), uint32(v)+1)
			first[v] = g.Offsets[v] + int64(above)
		}
	}).Run()
	return triangles(pool, g, first, true)
}

// triangles is the one per-vertex triangle loop. Row v is
// g.Targets[first[v]:g.Offsets[v+1]] — the sorted neighbours above v:
// all of them on an oriented CSR (first = g.Offsets), the upper half on a
// symmetrized one — and every v intersects its row with its neighbours'
// rows, counting each triangle i<j<k once. Chunks are claimed dynamically
// on the caller's pool and each folds its partial count into the total
// with one atomic add; integer addition is exact, so the count is the
// same at any worker count.
func triangles(pool *par.Pool, g *graph.CSR, first []int64, bitvector bool) int64 {
	// Per-worker bit-vector scratch survives across the many small chunks
	// one worker claims (allocating it per chunk would dominate).
	scratch := make([]*bitvec.Vector, pool.Workers())
	var total atomic.Int64
	backend.NewSweep(pool, int(g.NumVertices), triangleGrain, func(worker, lo, hi int) {
		var local int64
		for v := lo; v < hi; v++ {
			adjV := g.Targets[first[v]:g.Offsets[v+1]]
			// A row of one neighbour u closes no triangle: u's row holds
			// only ids above u.
			if len(adjV) < 2 {
				continue
			}
			if !bitvector {
				for _, u := range adjV {
					local += int64(graph.IntersectSortedCount(adjV, g.Targets[first[u]:g.Offsets[u+1]]))
				}
				continue
			}
			// Paper §6.1.2: mark v's row in the worker's bit-vector once,
			// then probe each neighbour's row against it, one word read
			// per element and no branch on the outcome.
			bv := scratch[worker]
			if bv == nil {
				bv = bitvec.New(g.NumVertices)
				scratch[worker] = bv
			}
			for _, t := range adjV {
				bv.Set(t)
			}
			words := bv.Words()
			for _, u := range adjV {
				for _, t := range g.Targets[first[u]:g.Offsets[u+1]] {
					local += int64(words[t>>6] >> (t & 63) & 1)
				}
			}
			for _, t := range adjV {
				bv.Clear(t)
			}
		}
		total.Add(local)
	}).Run()
	return total.Load()
}

// triangleCluster distributes counting over a 1-D partition. For every
// boundary edge (u,v) with owner(u)=s ≠ owner(v)=d, node s ships adj(u)
// to d exactly once per (u,d) pair; d then intersects it with adj(v) for
// each of its owned v ∈ adj(u). This is the paper's "share neighbourhood
// lists with neighbours" scheme, whose traffic dwarfs the graph itself
// (Table 1: 0–10^6 bytes per edge). The lists ship compressed and the
// exchange overlaps compute, as under DefaultTuning; no experiment
// ablates either here.
func (e *Engine) triangleCluster(g *graph.CSR, opt core.TriangleOptions) (*core.TriangleResult, error) {
	cfg := opt.Exec.ClusterConfig()
	cfg.Overlap = true
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	part, err := graph.NewPartition1D(g, c.Nodes())
	if err != nil {
		return nil, err
	}
	for node := 0; node < c.Nodes(); node++ {
		lo, hi := part.Range(node)
		edges := g.Offsets[hi] - g.Offsets[lo]
		c.SetBaselineMemory(node, edges*4+int64(hi-lo+1)*8)
	}

	// adj(v) must reach the owners of v's remote out-neighbours, once
	// each: the triangle (v,u,t) is counted where adj(u) lives.
	sendIDs := part.SendIDs(g)

	var total int64
	// Phase 1: local counting plus neighbourhood-list shipping. Each
	// destination gets one payload, its lists' frames in SendIDs order;
	// a list bound for several destinations is encoded once.
	err = c.RunPhase(func(node int) error {
		lo, hi := part.Range(node)
		for v := lo; v < hi; v++ {
			adjV := g.Neighbors(v)
			for _, u := range adjV {
				if part.Owner(u) == node {
					total += int64(graph.IntersectSortedCount(adjV, g.Neighbors(u)))
				}
			}
		}
		frames := make([][]byte, hi-lo) // adj(v)'s frame, encoded on first use
		for d, ids := range sendIDs[node] {
			var payload []byte
			for _, v := range ids {
				if frames[v-lo] == nil {
					frame, err := encodeAdjacency(v, g.Neighbors(v), g.NumVertices)
					if err != nil {
						return err
					}
					frames[v-lo] = frame
				}
				payload = append(payload, frames[v-lo]...)
			}
			if payload != nil {
				c.Send(node, d, payload)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: intersect received lists with local adjacency.
	err = c.RunPhase(func(node int) error {
		for _, payload := range c.Recv(node) {
			lists, err := decodeAdjacencyBatch(payload)
			if err != nil {
				return err
			}
			for _, adj := range lists {
				for _, u := range adj {
					if part.Owner(u) != node {
						continue
					}
					total += int64(graph.IntersectSortedCount(adj, g.Neighbors(u)))
				}
			}
		}
		// Final count allreduce.
		c.Account(node, 8, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &core.TriangleResult{
		Count: total,
		Stats: core.SimulatedStats(c, 1),
	}, nil
}

// encodeAdjacency frames one vertex's adjacency list: vertex id, payload
// length, then the compressed sorted id list.
func encodeAdjacency(v uint32, adj []uint32, universe uint32) ([]byte, error) {
	body, err := codec.EncodeIDsAuto(adj, universe)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(out, v)
	binary.LittleEndian.PutUint32(out[4:], graph.MustU32(int64(len(body))))
	copy(out[8:], body)
	return out, nil
}

// decodeAdjacencyBatch parses a payload of concatenated encodeAdjacency
// frames (one per list the sender shipped) into their adjacency lists.
func decodeAdjacencyBatch(payload []byte) ([][]uint32, error) {
	var out [][]uint32
	for len(payload) > 0 {
		if len(payload) < 8 {
			return nil, errFrameLength
		}
		bodyLen := int(binary.LittleEndian.Uint32(payload[4:]))
		if len(payload) < 8+bodyLen {
			return nil, errFrameLength
		}
		adj, err := codec.DecodeIDs(payload[8 : 8+bodyLen])
		if err != nil {
			return nil, err
		}
		out = append(out, adj)
		payload = payload[8+bodyLen:]
	}
	return out, nil
}

var errFrameLength = errors.New("native: frame length disagrees with its header")
