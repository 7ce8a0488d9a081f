package native

import (
	"encoding/binary"
	"math"
	"math/rand"

	"graphmaze/internal/backend"
	"graphmaze/internal/cluster"
	"graphmaze/internal/core"
	"graphmaze/internal/graph"
	"graphmaze/internal/trace"
)

// CollabFilter implements core.Engine. The native code implements true
// Stochastic Gradient Descent with Gemulla et al.'s diagonal block
// parallelization (paper §3.2 and §6.1.2) as well as full-batch Gradient
// Descent for apples-to-apples per-iteration comparisons with the
// frameworks that cannot express SGD.
func (e *Engine) CollabFilter(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	opt, err := core.CheckCFInput(r, opt)
	if err != nil {
		return nil, err
	}
	if opt.Exec.Cluster != nil {
		return e.cfCluster(r, opt)
	}
	k := opt.K
	userF := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemF := core.InitFactors(r.NumItems, k, opt.Seed+1)
	train := func(pool *backend.Pool) []float64 { return gdLocal(pool, r, opt, userF, itemF) }
	if opt.Method == core.SGD {
		blocks, _, _ := buildBlocks(r, numStripes(r))
		shuffleBlocks(blocks, opt.Seed)
		train = func(pool *backend.Pool) []float64 { return sgdLocal(pool, r, opt, blocks, userF, itemF) }
	}
	var rmse []float64
	stats := opt.Exec.Local(func(pool *backend.Pool, _ *trace.Tracer) int {
		rmse = train(pool)
		return opt.Iterations
	})
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}
	return &core.CFResult{K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse, Stats: stats}, nil
}

// blockEdge is one rating inside a (user-stripe, item-stripe) block.
type blockEdge struct {
	u, v   uint32
	rating float32
}

// buildBlocks groups ratings into a W×W grid of blocks over contiguous
// user and item stripes — Gemulla's partitioning: blocks on the same
// diagonal touch disjoint users and items, so they update without locks.
func buildBlocks(r *graph.Bipartite, w int) (blocks [][]blockEdge, userStripe, itemStripe []uint32) {
	userStripe = stripeBounds(r.NumUsers, w)
	itemStripe = stripeBounds(r.NumItems, w)
	blocks = make([][]blockEdge, w*w)
	for u := uint32(0); u < r.NumUsers; u++ {
		su := stripeOf(userStripe, u)
		adj, wts := r.ByUser.Neighbors(u), r.ByUser.EdgeWeights(u)
		for i, v := range adj {
			sv := stripeOf(itemStripe, v)
			idx := su*w + sv
			blocks[idx] = append(blocks[idx], blockEdge{u: u, v: v, rating: wts[i]})
		}
	}
	return blocks, userStripe, itemStripe
}

func stripeBounds(n uint32, w int) []uint32 {
	b := make([]uint32, w+1)
	for i := 0; i <= w; i++ {
		b[i] = graph.MustU32(int64(uint64(n) * uint64(i) / uint64(w)))
	}
	return b
}

func stripeOf(bounds []uint32, v uint32) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// shuffleBlocks pre-shuffles each block once with a deterministic seed:
// SGD requires random visit order within a block.
func shuffleBlocks(blocks [][]blockEdge, seed int64) {
	for i := range blocks {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		rng.Shuffle(len(blocks[i]), func(a, b int) {
			blocks[i][a], blocks[i][b] = blocks[i][b], blocks[i][a]
		})
	}
}

// sgdLocal runs diagonal-parallel SGD over the W×W shuffled blocks on the
// call's pool: W sub-steps per iteration, each processing the W blocks of
// one diagonal concurrently. It updates the factors in place and returns
// the per-iteration RMSE trajectory (empty when skipped).
func sgdLocal(pool *backend.Pool, r *graph.Bipartite, opt core.CFOptions, blocks [][]blockEdge, userF, itemF []float32) []float64 {
	k := opt.K
	w := numStripes(r)
	rmse := make([]float64, 0, opt.Iterations)
	gamma := opt.LearningRate
	sub := 0
	diagonal := backend.NewDense(pool, w, func(lo, hi int) {
		for stripe := lo; stripe < hi; stripe++ {
			sgdBlock(blocks[stripe*w+(stripe+sub)%w], userF, itemF, k, gamma, opt)
		}
	})
	for it := 0; it < opt.Iterations; it++ {
		for sub = 0; sub < w; sub++ {
			diagonal.Run()
		}
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, k, userF, itemF))
		}
	}
	return rmse
}

// numStripes picks the SGD grid width: enough for parallelism without
// making blocks degenerate on small inputs.
func numStripes(r *graph.Bipartite) int {
	w := 8
	for uint32(w) > r.NumUsers || uint32(w) > r.NumItems {
		w /= 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sgdBlock applies the paper's update equations (5)–(8) to every rating in
// the block.
func sgdBlock(block []blockEdge, userF, itemF []float32, k int, gamma float64, opt core.CFOptions) {
	for _, edge := range block {
		pu := userF[int(edge.u)*k : int(edge.u+1)*k]
		qv := itemF[int(edge.v)*k : int(edge.v+1)*k]
		euv := float64(edge.rating) - core.Dot(pu, qv)
		for d := 0; d < k; d++ {
			pud, qvd := float64(pu[d]), float64(qv[d])
			pu[d] = float32(pud + gamma*(euv*qvd-opt.LambdaP*pud))
			qv[d] = float32(qvd + gamma*(euv*pud-opt.LambdaQ*qvd))
		}
	}
}

// gdLocal runs full-batch gradient descent (paper eqs. 11–12) on the
// call's pool, parallel over users for P-gradients and over items for
// Q-gradients. It updates the factors in place and returns the
// per-iteration RMSE trajectory (empty when skipped).
func gdLocal(pool *backend.Pool, r *graph.Bipartite, opt core.CFOptions, userF, itemF []float32) []float64 {
	k := opt.K
	gradP := make([]float32, len(userF))
	gradQ := make([]float32, len(itemF))
	rmse := make([]float64, 0, opt.Iterations)
	gamma := opt.LearningRate

	userPass := backend.NewDense(pool, int(r.NumUsers), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			adj, wts := r.ByUser.Neighbors(uint32(u)), r.ByUser.EdgeWeights(uint32(u))
			pu := userF[u*k : (u+1)*k]
			gp := gradP[u*k : (u+1)*k]
			for d := range gp {
				gp[d] = 0
			}
			for i, v := range adj {
				qv := itemF[int(v)*k : int(v+1)*k]
				err := float64(wts[i]) - core.Dot(pu, qv)
				for d := 0; d < k; d++ {
					gp[d] += float32(err*float64(qv[d]) - opt.LambdaP*float64(pu[d]))
				}
			}
		}
	})
	itemPass := backend.NewDense(pool, int(r.NumItems), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			adj, wts := r.ByItem.Neighbors(uint32(v)), r.ByItem.EdgeWeights(uint32(v))
			qv := itemF[v*k : (v+1)*k]
			gq := gradQ[v*k : (v+1)*k]
			for d := range gq {
				gq[d] = 0
			}
			for i, u := range adj {
				pu := userF[int(u)*k : int(u+1)*k]
				err := float64(wts[i]) - core.Dot(pu, qv)
				for d := 0; d < k; d++ {
					gq[d] += float32(err*float64(pu[d]) - opt.LambdaQ*float64(qv[d]))
				}
			}
		}
	})
	apply := func(f, grad []float32) *backend.Dense {
		return backend.NewDense(pool, len(f), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f[i] += float32(gamma) * grad[i]
			}
		})
	}
	applyP, applyQ := apply(userF, gradP), apply(itemF, gradQ)

	for it := 0; it < opt.Iterations; it++ {
		userPass.Run()
		itemPass.Run()
		applyP.Run()
		applyQ.Run()
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, k, userF, itemF))
		}
	}
	return rmse
}

// cfCluster runs distributed CF. SGD uses Gemulla's rotation: node i holds
// user stripe i permanently; item stripes rotate around the ring once per
// iteration, so each iteration is N sub-steps and each node ships one item
// stripe per sub-step (K·4 bytes per item, the paper's network-heavy CF
// pattern). GD aggregates partial item gradients at item owners.
func (e *Engine) cfCluster(r *graph.Bipartite, opt core.CFOptions) (*core.CFResult, error) {
	cfg := opt.Exec.ClusterConfig()
	cfg.Overlap = e.tuning.Overlap
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	k := opt.K
	userF := core.InitFactors(r.NumUsers, k, opt.Seed)
	itemF := core.InitFactors(r.NumItems, k, opt.Seed+1)
	n := c.Nodes()
	blocks, userStripe, itemStripe := buildBlocks(r, n)

	for node := 0; node < n; node++ {
		users := int64(userStripe[node+1] - userStripe[node])
		items := int64(itemStripe[node+1] - itemStripe[node])
		var ratings int64
		for sv := 0; sv < n; sv++ {
			ratings += int64(len(blocks[node*n+sv]))
		}
		c.SetBaselineMemory(node, users*int64(k)*4+items*int64(k)*4+ratings*12)
	}

	if opt.Method == core.SGD {
		shuffleBlocks(blocks, opt.Seed)
	}

	rmse := make([]float64, 0, opt.Iterations)
	gamma := opt.LearningRate
	for it := 0; it < opt.Iterations; it++ {
		if opt.Method == core.SGD {
			for sub := 0; sub < n; sub++ {
				err := c.RunPhase(func(node int) error {
					// Install the item stripe received from the right
					// neighbour (identical values already live in shared
					// memory; decoding keeps the protocol honest).
					for _, payload := range c.Recv(node) {
						if err := decodeStripe(payload, itemF, k); err != nil {
							return err
						}
					}
					stripe := (node + sub) % n
					sgdBlock(blocks[node*n+stripe], userF, itemF, k, gamma, opt)
					if n > 1 {
						lo, hi := itemStripe[stripe], itemStripe[stripe+1]
						c.Send(node, (node+n-1)%n, encodeStripe(lo, hi, itemF, k))
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		} else {
			// GD: one gradient phase (partial item gradients travel to
			// item owners) + one apply phase.
			gradP := make([]float32, len(userF))
			gradQ := make([]float32, len(itemF))
			err := c.RunPhase(func(node int) error {
				var remoteItems int64
				touched := make(map[uint32]bool)
				for sv := 0; sv < n; sv++ {
					for _, edge := range blocks[node*n+sv] {
						pu := userF[int(edge.u)*k : int(edge.u+1)*k]
						qv := itemF[int(edge.v)*k : int(edge.v+1)*k]
						errv := float64(edge.rating) - core.Dot(pu, qv)
						gp := gradP[int(edge.u)*k : int(edge.u+1)*k]
						gq := gradQ[int(edge.v)*k : int(edge.v+1)*k]
						for d := 0; d < k; d++ {
							gp[d] += float32(errv*float64(qv[d]) - opt.LambdaP*float64(pu[d]))
							gq[d] += float32(errv*float64(pu[d]) - opt.LambdaQ*float64(qv[d]))
						}
						if sv != node && !touched[edge.v] {
							touched[edge.v] = true
							remoteItems++
						}
					}
				}
				// Partial gradients for remote items: K floats + id each.
				if remoteItems > 0 {
					c.Account(node, remoteItems*(int64(k)*4+4), int64(n-1))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			err = c.RunPhase(func(node int) error {
				ulo, uhi := userStripe[node], userStripe[node+1]
				for i := int(ulo) * k; i < int(uhi)*k; i++ {
					userF[i] += float32(gamma) * gradP[i]
				}
				ilo, ihi := itemStripe[node], itemStripe[node+1]
				for i := int(ilo) * k; i < int(ihi)*k; i++ {
					itemF[i] += float32(gamma) * gradQ[i]
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		gamma *= opt.StepDecay
		if !opt.SkipRMSETrajectory {
			rmse = append(rmse, core.RMSE(r, k, userF, itemF))
		}
	}
	if opt.SkipRMSETrajectory {
		rmse = append(rmse, core.RMSE(r, k, userF, itemF))
	}

	return &core.CFResult{
		K: k, UserFactors: userF, ItemFactors: itemF, RMSE: rmse,
		Stats: core.SimulatedStats(c, opt.Iterations),
	}, nil
}

// encodeStripe frames item factors [lo,hi) as lo, count, then K·count
// float32 values.
func encodeStripe(lo, hi uint32, itemF []float32, k int) []byte {
	count := int(hi - lo)
	out := make([]byte, 8+4*count*k)
	binary.LittleEndian.PutUint32(out, lo)
	binary.LittleEndian.PutUint32(out[4:], uint32(count))
	pos := 8
	for i := int(lo) * k; i < int(hi)*k; i++ {
		binary.LittleEndian.PutUint32(out[pos:], math.Float32bits(itemF[i]))
		pos += 4
	}
	return out
}

// decodeStripe writes a stripe frame back into the factor array. The
// payload may hold several concatenated frames.
func decodeStripe(payload []byte, itemF []float32, k int) error {
	for len(payload) > 0 {
		if len(payload) < 8 {
			return errShortFrame
		}
		lo := binary.LittleEndian.Uint32(payload)
		count := int(binary.LittleEndian.Uint32(payload[4:]))
		need := 8 + 4*count*k
		if len(payload) < need {
			return errShortFrame
		}
		pos := 8
		for i := int(lo) * k; i < (int(lo)+count)*k; i++ {
			itemF[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:]))
			pos += 4
		}
		payload = payload[need:]
	}
	return nil
}
