package gen

import (
	"fmt"
	"math/rand"

	"graphmaze/internal/graph"
)

// RatingsConfig parameterizes the paper's synthetic collaborative-filtering
// generator (§4.1.2): an RMAT graph with a Netflix-like degree tail is
// folded into an Nusers×Nitems bipartite matrix by chunking the column
// space into item-sized chunks and logically OR-ing them, then vertices
// with degree below MinDegree are removed.
type RatingsConfig struct {
	Scale      int    // RMAT scale; users come from the row space (2^Scale)
	NumItems   uint32 // column space is folded into chunks of this size
	NumRatings int64  // raw RMAT edges generated before fold/dedup/filter
	MinDegree  int64  // paper uses 5
	Seed       int64
	// MinRating/MaxRating bound the generated star ratings (inclusive).
	MinRating, MaxRating float32
}

// DefaultRatingsConfig mirrors the paper's setup at a reduced scale:
// ratings ≈ ratingsPerUser × 2^scale, items = 2^(scale-5) (Netflix has
// ~27 users per item; a power of two keeps the fold on bit boundaries so
// the RMAT column skew survives), 1–5 star ratings, min degree 5.
func DefaultRatingsConfig(scale int, ratingsPerUser int, seed int64) RatingsConfig {
	items := uint32(1)
	if scale > 5 {
		items = uint32(1) << uint(scale-5)
	}
	return RatingsConfig{
		Scale:      scale,
		NumItems:   items,
		NumRatings: int64(ratingsPerUser) << uint(scale),
		MinDegree:  5,
		Seed:       seed,
		MinRating:  1,
		MaxRating:  5,
	}
}

// Validate reports the first problem with the configuration.
func (c RatingsConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("gen: ratings scale %d outside [1,30]", c.Scale)
	}
	if c.NumItems == 0 {
		return fmt.Errorf("gen: ratings need at least one item")
	}
	if c.NumRatings <= 0 {
		return fmt.Errorf("gen: non-positive rating count %d", c.NumRatings)
	}
	if c.MinDegree < 0 {
		return fmt.Errorf("gen: negative min degree %d", c.MinDegree)
	}
	if c.MaxRating < c.MinRating {
		return fmt.Errorf("gen: rating range [%v,%v] empty", c.MinRating, c.MaxRating)
	}
	return nil
}

// Ratings generates a bipartite rating graph per the configuration. User
// and item ids are compacted after the degree filter, so the result has no
// isolated vertices.
func Ratings(cfg RatingsConfig) (*graph.Bipartite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rmatCfg := RatingsRMATConfig(cfg.Scale, 1, cfg.Seed)
	rmatCfg.NumEdges = cfg.NumRatings
	// Fold raw Graph500 ids: the modulo fold below relies on RMAT's
	// bit-structured column skew, which a vertex permutation would destroy.
	// Ids are compacted (relabeled) after the degree filter anyway.
	rmatCfg.PermuteVertices = false
	edges, err := RMAT(rmatCfg)
	if err != nil {
		return nil, err
	}

	// Fold the column space into item chunks (logical OR = dedup below).
	numUsers := rmatCfg.NumVertices()
	for i := range edges {
		edges[i].Dst %= cfg.NumItems
	}

	// Dedup (user,item) pairs.
	seen := make(map[uint64]struct{}, len(edges))
	w := 0
	for _, e := range edges {
		key := uint64(e.Src)<<32 | uint64(e.Dst)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		edges[w] = e
		w++
	}
	edges = edges[:w]

	// Degree filter: drop users and items with fewer than MinDegree
	// ratings. One pass over each side, as in the paper's post-processing.
	userDeg := make([]int64, numUsers)
	itemDeg := make([]int64, cfg.NumItems)
	for _, e := range edges {
		userDeg[e.Src]++
		itemDeg[e.Dst]++
	}
	w = 0
	for _, e := range edges {
		if userDeg[e.Src] < cfg.MinDegree || itemDeg[e.Dst] < cfg.MinDegree {
			continue
		}
		edges[w] = e
		w++
	}
	edges = edges[:w]
	if len(edges) == 0 {
		return nil, fmt.Errorf("gen: degree filter %d removed every rating; lower MinDegree or raise NumRatings", cfg.MinDegree)
	}

	// Compact ids.
	userID := make(map[uint32]uint32)
	itemID := make(map[uint32]uint32)
	ratings := make([]graph.WeightedEdge, len(edges))
	r := rand.New(rand.NewSource(mix(cfg.Seed, 0x5ca1e)))
	span := cfg.MaxRating - cfg.MinRating
	for i, e := range edges {
		u, ok := userID[e.Src]
		if !ok {
			u = graph.MustU32(int64(len(userID)))
			userID[e.Src] = u
		}
		v, ok := itemID[e.Dst]
		if !ok {
			v = graph.MustU32(int64(len(itemID)))
			itemID[e.Dst] = v
		}
		// Star ratings: integer steps across the configured range.
		stars := cfg.MinRating
		if span > 0 {
			stars += float32(r.Intn(int(span) + 1))
		}
		ratings[i] = graph.WeightedEdge{Src: u, Dst: v, Weight: stars}
	}
	return graph.NewBipartite(graph.MustU32(int64(len(userID))), graph.MustU32(int64(len(itemID))), ratings)
}
