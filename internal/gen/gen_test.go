package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"graphmaze/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	cfg := Graph500Config(10, 8, 42)
	a, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRMATSeedChangesOutput(t *testing.T) {
	a, _ := RMAT(Graph500Config(10, 8, 1))
	b, _ := RMAT(Graph500Config(10, 8, 2))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical edge lists")
	}
}

func TestRMATEdgeCountAndRange(t *testing.T) {
	cfg := Graph500Config(8, 16, 7)
	edges, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(edges)) != cfg.NumEdges {
		t.Fatalf("generated %d edges, want %d", len(edges), cfg.NumEdges)
	}
	n := cfg.NumVertices()
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge %v out of range [0,%d)", e, n)
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// RMAT with A=0.57 must produce a skewed degree distribution; an
	// Erdős–Rényi-like flat distribution would indicate a broken
	// quadrant descent.
	cfg := Graph500Config(12, 16, 3)
	edges, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int64, cfg.NumVertices())
	for _, e := range edges {
		deg[e.Src]++
	}
	st := graph.ComputeDegreeStats(deg)
	if st.GiniCoefficient < 0.4 {
		t.Errorf("RMAT Gini = %v, want skew > 0.4", st.GiniCoefficient)
	}
	if st.Max < 8*int64(st.Mean) {
		t.Errorf("RMAT max degree %d not heavy-tailed (mean %.1f)", st.Max, st.Mean)
	}
}

func TestRMATTriangleParamsLessSkewed(t *testing.T) {
	// A=0.45 spreads mass more evenly than A=0.57.
	g500, _ := RMAT(Graph500Config(12, 16, 3))
	tri, _ := RMAT(TriangleConfig(12, 16, 3))
	gini := func(edges []graph.Edge, n uint32) float64 {
		deg := make([]int64, n)
		for _, e := range edges {
			deg[e.Src]++
		}
		return graph.ComputeDegreeStats(deg).GiniCoefficient
	}
	n := uint32(1) << 12
	if g, tg := gini(g500, n), gini(tri, n); tg >= g {
		t.Errorf("triangle params Gini %v not below Graph500 Gini %v", tg, g)
	}
}

// TestRMATValidation also rejects a non-finite A, B or C (a NaN A would
// put every edge in quadrant D) and noise outside [0, 1], which can drive
// a quadrant weight negative, where the branch-free pick and a
// first-match switch disagree. Every preset, and noise 1, validates.
func TestRMATValidation(t *testing.T) {
	noised := func(edit func(*RMATConfig)) RMATConfig {
		c := Graph500Config(4, 2, 1)
		edit(&c)
		return c
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []RMATConfig{
		{Scale: 0, NumEdges: 10, A: 0.5, B: 0.2, C: 0.2},
		{Scale: 40, NumEdges: 10, A: 0.5, B: 0.2, C: 0.2},
		{Scale: 5, NumEdges: -1, A: 0.5, B: 0.2, C: 0.2},
		{Scale: 5, NumEdges: 10, A: 0.5, B: 0.3, C: 0.3},
		{Scale: 5, NumEdges: 10, A: 0, B: 0.2, C: 0.2},
		noised(func(c *RMATConfig) { c.A = nan }),
		noised(func(c *RMATConfig) { c.B = nan }),
		noised(func(c *RMATConfig) { c.C = nan }),
		noised(func(c *RMATConfig) { c.A = inf }),
		noised(func(c *RMATConfig) { c.B = -inf }),
		noised(func(c *RMATConfig) { c.C = inf }),
		noised(func(c *RMATConfig) { c.Noise = -0.1 }),
		noised(func(c *RMATConfig) { c.Noise = 1.5 }),
		noised(func(c *RMATConfig) { c.Noise = nan }),
	}
	for i, cfg := range bad {
		if _, err := RMAT(cfg); err == nil {
			t.Errorf("config %d (%+v): expected validation error", i, cfg)
		}
	}
	good := []RMATConfig{Graph500Config(4, 2, 1), TriangleConfig(4, 2, 1), RatingsRMATConfig(4, 2, 1), noised(func(c *RMATConfig) { c.Noise = 1 })}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %d: %v", i, err)
		}
	}
}

// switchQuadrant is the first-match switch quadrant's branch-free pick
// replaced, kept as its oracle.
func switchQuadrant(u, al, bl, cl float64) (src, dst uint32) {
	switch {
	case u < al:
		// top-left quadrant: no bits set
	case u < al+bl:
		dst |= 1
	case u < al+bl+cl:
		src |= 1
	default:
		src |= 1
		dst |= 1
	}
	return src, dst
}

// TestQuadrantMatchesSwitch: the pick agrees with the switch on and
// around every threshold, with empty B or C quadrants, and on random
// draws from noised weights.
func TestQuadrantMatchesSwitch(t *testing.T) {
	check := func(u, al, bl, cl float64) {
		t.Helper()
		gs, gd := quadrant(u, al, bl, cl)
		ws, wd := switchQuadrant(u, al, bl, cl)
		if gs != ws || gd != wd {
			t.Errorf("quadrant(%v; %v, %v, %v) = (%d,%d), switch (%d,%d)", u, al, bl, cl, gs, gd, ws, wd)
		}
	}
	weights := [][3]float64{{0.57, 0.19, 0.19}, {0.45, 0.15, 0}, {0.4, 0, 0.22}, {0.5, 0, 0}, {0.3, 0.3, 0.3}}
	for _, w := range weights {
		al, bl, cl := w[0], w[1], w[2]
		for _, x := range []float64{0, al, al + bl, al + bl + cl, 1} {
			for _, u := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 2)} {
				if u >= 0 && u < 1 {
					check(u, al, bl, cl)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		al := 0.57 * (1 + (2*r.Float64() - 1))
		bl := 0.19 * (1 + (2*r.Float64() - 1))
		cl := 0.19 * (1 + (2*r.Float64() - 1))
		check(r.Float64(), al, bl, cl)
	}
}

// TestRMATStreamPinned pins the generator's output, not only its
// agreement with itself: an FNV-64a hash of the edges (Src, Dst as
// little-endian uint32s) for each preset at three seeds (one under
// -short), computed from the switch-based quadrant pick the branch-free
// one replaced.
func TestRMATStreamPinned(t *testing.T) {
	want := []struct {
		cfg  RMATConfig
		hash uint64
	}{
		{Graph500Config(16, 8, 1), 0xbd5acce63f69918d},
		{TriangleConfig(15, 8, 1), 0xd8aca90b19178aac},
		{RatingsRMATConfig(14, 16, 1), 0x10b10a4f0bd5d17d},
		{Graph500Config(16, 8, 77), 0xa58c9a6b7480c4c9},
		{TriangleConfig(15, 8, 77), 0x8f66697f0197c9e1},
		{RatingsRMATConfig(14, 16, 77), 0x537b057fb6be84d3},
		{Graph500Config(16, 8, -3), 0x40af5f5a2593aa18},
		{TriangleConfig(15, 8, -3), 0x4543611a2e6b01d6},
		{RatingsRMATConfig(14, 16, -3), 0x98ae821b03a64a60},
	}
	if testing.Short() {
		want = want[:3] // the first seed of each preset
	}
	for _, w := range want {
		edges, err := RMAT(w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, e := range edges {
			binary.LittleEndian.PutUint32(b[:4], e.Src)
			binary.LittleEndian.PutUint32(b[4:], e.Dst)
			h.Write(b[:])
		}
		if got := h.Sum64(); got != w.hash {
			t.Errorf("scale %d A=%v seed %d: edge hash %#016x, want %#016x", w.cfg.Scale, w.cfg.A, w.cfg.Seed, got, w.hash)
		}
	}
}

func TestPermutationIsBijection(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := uint32(nRaw%2048) + 1
		perm := Permutation(n, seed)
		if uint32(len(perm)) != n {
			return false
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRatingsGenerator(t *testing.T) {
	cfg := DefaultRatingsConfig(10, 32, 11)
	bp, err := Ratings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumRatings() == 0 {
		t.Fatal("no ratings generated")
	}
	// Degree filter: every surviving user and item has >= MinDegree.
	for u := uint32(0); u < bp.NumUsers; u++ {
		if d := bp.ByUser.Degree(u); d < cfg.MinDegree {
			t.Fatalf("user %d degree %d below filter %d", u, d, cfg.MinDegree)
		}
	}
	for v := uint32(0); v < bp.NumItems; v++ {
		if d := bp.ByItem.Degree(v); d < cfg.MinDegree {
			t.Fatalf("item %d degree %d below filter %d", v, d, cfg.MinDegree)
		}
	}
	// Ratings are stars in [1,5].
	for u := uint32(0); u < bp.NumUsers; u++ {
		for _, w := range bp.ByUser.EdgeWeights(u) {
			if w < 1 || w > 5 {
				t.Fatalf("rating %v outside [1,5]", w)
			}
		}
	}
}

// TestDefaultRatingsSmallScales: below scale 8 the item count is floored
// at 8, so scales 5–7 keep ratings for every seed; from scale 8 up it is
// 2^(scale-5), the paper's users-per-item ratio, so those inputs (and the
// CF goldens built on them) do not move.
func TestDefaultRatingsSmallScales(t *testing.T) {
	for scale := 5; scale <= 7; scale++ {
		for _, seed := range []int64{7, 31, 100} {
			cfg := DefaultRatingsConfig(scale, 16, seed)
			if cfg.NumItems != 8 {
				t.Errorf("scale %d: %d items, want 8", scale, cfg.NumItems)
			}
			bp, err := Ratings(cfg)
			if err != nil {
				t.Errorf("scale %d seed %d: %v", scale, seed, err)
				continue
			}
			if bp.NumRatings() == 0 {
				t.Errorf("scale %d seed %d: no ratings", scale, seed)
			}
		}
	}
	for scale := 8; scale <= 20; scale++ {
		if got, want := DefaultRatingsConfig(scale, 16, 1).NumItems, uint32(1)<<(scale-5); got != want {
			t.Errorf("scale %d: %d items, want %d", scale, got, want)
		}
	}
}

func TestRatingsDeterministic(t *testing.T) {
	cfg := DefaultRatingsConfig(9, 16, 5)
	a, err := Ratings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ratings(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRatings() != b.NumRatings() || a.NumUsers != b.NumUsers || a.NumItems != b.NumItems {
		t.Fatalf("ratings not deterministic: %d/%d/%d vs %d/%d/%d",
			a.NumRatings(), a.NumUsers, a.NumItems, b.NumRatings(), b.NumUsers, b.NumItems)
	}
}

func TestRatingsPowerLawTail(t *testing.T) {
	bp, err := Ratings(DefaultRatingsConfig(12, 32, 17))
	if err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeDegreeStats(bp.ByItem.OutDegrees())
	// Skew grows with scale; at this test scale a Gini above 0.2 and a
	// heavy-tailed max already rule out a uniform generator (~0.05).
	if st.GiniCoefficient < 0.2 {
		t.Errorf("item-degree Gini = %v, want skewed tail", st.GiniCoefficient)
	}
	if st.Max < 2*int64(st.Mean) {
		t.Errorf("item max degree %d not heavy-tailed (mean %.1f)", st.Max, st.Mean)
	}
}

func TestRatingsValidation(t *testing.T) {
	cfg := DefaultRatingsConfig(8, 8, 1)
	cfg.NumItems = 0
	if _, err := Ratings(cfg); err == nil {
		t.Error("expected error for zero items")
	}
	cfg = DefaultRatingsConfig(8, 8, 1)
	cfg.MaxRating = 0
	if _, err := Ratings(cfg); err == nil {
		t.Error("expected error for empty rating range")
	}
	cfg = DefaultRatingsConfig(8, 8, 1)
	cfg.MinDegree = 1 << 30
	if _, err := Ratings(cfg); err == nil {
		t.Error("expected error when filter removes everything")
	}
}

// DegreeCCDF is the tail oracle TestTailDistanceCalibration judges the
// ratings generator by: the complementary CDF of a degree distribution
// sampled at power-of-two thresholds: out[k] = fraction of vertices with
// degree ≥ 2^k. The paper's generator calibration (§4.1.2: "Through
// experimentation, we found that RMAT parameters of A = 0.40 and
// B = C = 0.22 generates degree distributions whose tail is reasonably
// close to that of the Netflix dataset") compares exactly these tails.
func DegreeCCDF(degrees []int64) []float64 {
	if len(degrees) == 0 {
		return nil
	}
	var maxDeg int64
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := 1
	for t := int64(1); t < maxDeg; t <<= 1 {
		buckets++
	}
	out := make([]float64, buckets)
	for _, d := range degrees {
		for k := 0; k < buckets; k++ {
			if d >= int64(1)<<uint(k) {
				out[k]++
			} else {
				break
			}
		}
	}
	n := float64(len(degrees))
	for k := range out {
		out[k] /= n
	}
	return out
}

// TailDistance compares two degree distributions' tails: the maximum
// absolute difference between their log10-CCDFs over the thresholds both
// populate. Smaller is a closer tail match.
func TailDistance(a, b []int64) float64 {
	ca, cb := DegreeCCDF(a), DegreeCCDF(b)
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	worst := 0.0
	for k := 0; k < n; k++ {
		if ca[k] == 0 || cb[k] == 0 {
			break
		}
		d := math.Log10(ca[k]) - math.Log10(cb[k])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	// Tail-length mismatch counts against the match too.
	la, lb := len(ca), len(cb)
	if la != lb {
		diff := float64(la - lb)
		if diff < 0 {
			diff = -diff
		}
		worst += 0.25 * diff
	}
	return worst
}

func TestDegreeCCDF(t *testing.T) {
	// Degrees 0,1,2,4: CCDF at ≥1: 3/4, ≥2: 2/4, ≥4: 1/4.
	ccdf := DegreeCCDF([]int64{0, 1, 2, 4})
	want := []float64{0.75, 0.5, 0.25}
	if len(ccdf) != len(want) {
		t.Fatalf("CCDF = %v, want %v", ccdf, want)
	}
	for i := range want {
		if ccdf[i] != want[i] {
			t.Fatalf("CCDF = %v, want %v", ccdf, want)
		}
	}
	if DegreeCCDF(nil) != nil {
		t.Error("CCDF of empty input not nil")
	}
}

func TestTailDistanceCalibration(t *testing.T) {
	// The paper's calibration logic: the power-law ratings generator's
	// item tail must be closer to another power-law sample than to a
	// uniform sampler's tail (the generator of [16] it improves on).
	bp, err := Ratings(DefaultRatingsConfig(12, 24, 1))
	if err != nil {
		t.Fatal(err)
	}
	bp2, err := Ratings(DefaultRatingsConfig(12, 24, 2))
	if err != nil {
		t.Fatal(err)
	}
	itemDeg := bp.ByItem.OutDegrees()
	itemDeg2 := bp2.ByItem.OutDegrees()

	// Uniform sampler matching the total rating count (Gemulla et al.'s
	// scheme per the paper's §4.1.2 critique).
	r := rand.New(rand.NewSource(3))
	uniform := make([]int64, bp.NumItems)
	for i := int64(0); i < bp.NumRatings(); i++ {
		uniform[r.Intn(len(uniform))]++
	}

	same := TailDistance(itemDeg, itemDeg2)
	vsUniform := TailDistance(itemDeg, uniform)
	if same >= vsUniform {
		t.Errorf("power-law tails differ more from each other (%v) than from uniform (%v)", same, vsUniform)
	}
}

func TestTailDistanceIdentity(t *testing.T) {
	deg := []int64{1, 2, 4, 8, 100}
	if d := TailDistance(deg, deg); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

// TestRMATBuildAndDeltaIdenticalAcrossGOMAXPROCS: the generator, graph
// construction, ApplyDelta and Transpose all dispatch on a pool as wide
// as GOMAXPROCS, so each must give the same bytes at 1, 3 and 4 procs. The
// input spans four 2^16-edge generator chunks and takes the radix sort
// path in both the build and the delta.
func TestRMATBuildAndDeltaIdenticalAcrossGOMAXPROCS(t *testing.T) {
	type result struct {
		edges, added []graph.Edge
		csrs         []*graph.CSR
	}
	run := func() result {
		var r result
		var err error
		if r.edges, err = RMAT(Graph500Config(14, 16, 5)); err != nil {
			t.Fatal(err)
		}
		for _, o := range []graph.Orientation{graph.KeepDirection, graph.Symmetrize} {
			b := graph.NewBuilder(1 << 14)
			b.AddEdges(r.edges)
			g, err := b.Build(graph.BuildOptions{Orientation: o, Dedup: true, DropSelfLoops: true, SortAdjacency: true})
			if err != nil {
				t.Fatal(err)
			}
			r.csrs = append(r.csrs, g)
		}
		v, err := graph.NewVersioned(r.csrs[1], graph.DeltaOptions{Symmetrize: true, DropSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := RMAT(Graph500Config(15, 1, 6))
		if err != nil {
			t.Fatal(err)
		}
		snap, added, _, err := v.ApplyDelta(delta)
		if err != nil {
			t.Fatal(err)
		}
		r.added = added
		r.csrs = append(r.csrs, snap.CSR(), r.csrs[0].Transpose(), r.csrs[1].Transpose())
		return r
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want result
	for _, procs := range []int{1, 3, 4} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if procs == 1 {
			want = got
			continue
		}
		if !slices.Equal(got.edges, want.edges) {
			t.Errorf("GOMAXPROCS=%d: RMAT edges differ from GOMAXPROCS=1", procs)
		}
		if !slices.Equal(got.added, want.added) {
			t.Errorf("GOMAXPROCS=%d: ApplyDelta's added edges differ from GOMAXPROCS=1", procs)
		}
		for i, g := range got.csrs {
			w := want.csrs[i]
			if g.NumVertices != w.NumVertices || !slices.Equal(g.Offsets, w.Offsets) || !slices.Equal(g.Targets, w.Targets) {
				t.Errorf("GOMAXPROCS=%d: CSR %d (directed build, symmetrized build, delta epoch, their two transposes) differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}
