package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphmaze/internal/backend"
	"graphmaze/internal/graph"
)

// TestBindNeverRegresses alternates PageRank misses on two pinned
// snapshots of one graph. The slot for per-epoch derived state must be
// built once per epoch that ever owns it (two here) and end on the newer
// one: a straggler on the older epoch computes on private state instead of
// evicting what every current query shares.
func TestBindNeverRegresses(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	g, _ := s.graphByName("social")
	older := g.v.Current()
	newer, _, _, err := g.v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 17}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	q := &query{kind: kindPageRank, iters: 3, jump: 0.3, topK: 3}
	want := make(map[graph.Epoch][]byte)
	published := make(map[*epochState]bool)
	for round := 0; round < 4; round++ {
		for _, snap := range []*graph.Snapshot{older, newer} {
			body, err := s.execute(g, snap, q)
			if err != nil {
				t.Fatalf("round %d epoch %d: %v", round, snap.Epoch(), err)
			}
			if first, ok := want[snap.Epoch()]; !ok {
				want[snap.Epoch()] = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("round %d epoch %d: body changed between rounds", round, snap.Epoch())
			}
			g.mu.Lock()
			published[g.bound] = true
			g.mu.Unlock()
		}
	}
	if len(published) > 2 {
		t.Errorf("the slot was rebuilt %d times over 8 alternating queries on 2 epochs, want at most 2", len(published))
	}
	if g.bound.epoch != newer.Epoch() {
		t.Errorf("slot ends on epoch %d, want the newer epoch %d", g.bound.epoch, newer.Epoch())
	}
	if st := g.bind(newer); st != g.bound {
		t.Error("binding the slot's own epoch built new state")
	}
}

// missPaths are one query of each scratch-borrowing or fused-reduction
// kind per fixture graph, plus triangle counting and the default Datalog
// rule on the symmetric one: every served kind.
var missPaths = []string{
	"/query/pagerank?graph=social&iters=6&k=4",
	"/query/pagerank?graph=web&iters=4&tol=0.001&k=7",
	"/query/cc?graph=social",
	"/query/cc?graph=web",
	"/query/bfs?graph=social&source=1",
	"/query/bfs?graph=web&source=2",
	"/query/tc?graph=social",
	"/query/datalog?graph=social&source=1",
}

// growDeltas add an edge to a vertex beyond each fixture graph's 128, so
// the epoch after them has more vertices than the scratch vectors an
// earlier miss returned.
var growDeltas = []string{
	`{"graph":"social","edges":[[1,300]]}`,
	`{"graph":"web","edges":[[2,257]]}`,
}

func postGrowDelta(t testing.TB, baseURL, body string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /delta: %v", err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /delta %s: status %d", body, resp.StatusCode)
	}
}

// TestConcurrentMissesMatchFreshServer runs uncached misses of every kind
// from several clients at once while deltas grow both vertex spaces (run
// it with -race). Every body must equal what a one-worker server that has
// never lent a vector to anyone answers at that epoch. Until as many
// answers are in as there are clients, a pass parked on the server's pool
// holds its team, so kernel phases that find it busy run on their
// request's own goroutine; backend.pool.inline must show they did. (If
// they queued for the team instead, no answer would come: the hold also
// ends after ten seconds, so that failure is the inline check, not a hang.)
func TestConcurrentMissesMatchFreshServer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 6, QueueDepth: 64})
	const clients = 6
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	noCache := map[string]string{"Cache-Control": "no-cache"}

	holding, release, held := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	releaseTeam := func() { releaseOnce.Do(func() { close(release) }) }
	go func() {
		defer close(held)
		backend.NewDense(s.Pool(), s.Pool().Workers(), func(lo, _ int) {
			if lo == 0 {
				close(holding)
				<-release
			}
		}).Run()
	}()
	<-holding
	deadline := time.AfterFunc(10*time.Second, releaseTeam)
	defer deadline.Stop()
	var answered atomic.Int64

	type answer struct {
		path  string
		epoch uint64
		body  []byte
	}
	answers := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c == 0 && i == rounds/3 {
					for _, d := range growDeltas {
						postGrowDelta(t, ts.URL, d)
					}
				}
				path := missPaths[(c+i)%len(missPaths)]
				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					t.Errorf("NewRequest: %v", err)
					return
				}
				req.Header.Set("Cache-Control", "no-cache")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d, read error %v", path, resp.StatusCode, err)
					return
				}
				var meta queryMeta
				if err := json.Unmarshal(buf.Bytes(), &meta); err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				answers[c] = append(answers[c], answer{path, meta.Epoch, buf.Bytes()})
				if answered.Add(1) == clients {
					releaseTeam()
				}
			}
		}(c)
	}
	wg.Wait()
	releaseTeam()
	<-held
	if inline := s.Registry().Counter("backend.pool.inline").Value(); inline == 0 {
		t.Error("no kernel phase ran on its request's goroutine: the inline path went untested")
	}

	fresh := make(map[string][]byte)
	epochsSeen := make(map[uint64]bool)
	for _, as := range answers {
		for _, a := range as {
			epochsSeen[a.epoch] = true
			key := fmt.Sprintf("%d %s", a.epoch, a.path)
			want, ok := fresh[key]
			if !ok {
				_, fts := newTestServer(t, Config{Workers: 1})
				if a.epoch > 0 {
					for _, d := range growDeltas {
						postGrowDelta(t, fts.URL, d)
					}
				}
				_, _, want = get(t, fts.URL+a.path, noCache)
				fresh[key] = want
			}
			if !bytes.Equal(a.body, want) {
				t.Errorf("%s at epoch %d:\n got %s\nwant %s", a.path, a.epoch, a.body, want)
			}
		}
	}
	if !epochsSeen[0] || !epochsSeen[1] {
		t.Errorf("misses landed on epochs %v, want some before and some after the growing deltas", epochsSeen)
	}
}

// TestWarmMissBorrowsItsVectors pins the scratch contract by its effect:
// once a PageRank or CC miss (carried or bypass) has run, the next one
// allocates less than a single n-element float64 vector in total (the
// O(n) working vectors are borrowed; what is left is the response and a
// few kernel headers), and once a bypass BFS has run, the next allocates
// less than its own 4·n-byte distance vector (what is left is the
// traversal's bitmaps and frontier lists, the response and a few headers).
// The PageRank rank slot's paths hold it too: a miss that resumes the
// slot's shorter run, one the slot refuses because it already holds a
// longer run (it runs on scratch), one whose scratch run displaces a
// shorter run of another jump from the slot (the scratch takes the
// displaced vector), and a bypass; the refused miss and the bypass leave
// the slot as it was. The collector is parked so the lending pool cannot
// be emptied mid-test, and the best of a few tries is taken because a
// race-enabled sync.Pool drops a quarter of what it is handed.
func TestWarmMissBorrowsItsVectors(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{Workers: 2})
	defer s.Close()
	if err := s.AddGraph("social", buildVersioned(t, 12, true, 42)); err != nil {
		t.Fatal(err)
	}
	g, _ := s.graphByName("social")
	n := uint64(g.v.Current().NumVertices())
	run := func(q *query) {
		if _, err := s.execute(g, g.v.Current(), q); err != nil {
			t.Fatalf("%s: %v", q.kind, err)
		}
	}
	pr := func(iters int, bypass bool) *query {
		return &query{kind: kindPageRank, iters: iters, jump: 0.3, topK: 5, bypass: bypass}
	}
	for _, c := range []struct {
		name   string
		q      *query
		budget uint64
		// prep runs before each try, outside the measurement, and first
		// inside it, before q; resumed is the sweeps each try after the
		// first must skip; keepsSlot, that the tries leave the slot as
		// they found it.
		prep      func()
		first     *query
		resumed   int64
		keepsSlot bool
	}{
		{name: "pagerank", q: pr(5, false), budget: 8 * n, resumed: 5}, // all of them after the first
		{name: "pagerank resumed", q: pr(10, false), budget: 8 * n, resumed: 5, prep: func() {
			// A new epoch (a duplicate edge still advances it) whose slot
			// holds 5 sweeps.
			if _, _, _, err := g.v.ApplyDelta([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
				t.Fatal(err)
			}
			run(pr(5, false))
		}},
		{name: "pagerank refused", q: pr(5, false), budget: 8 * n, keepsSlot: true, prep: func() { run(pr(20, false)) }},
		{name: "pagerank displacing", first: &query{kind: kindPageRank, iters: 5, jump: 0.15, topK: 5}, q: pr(10, false), budget: 8 * n,
			prep: func() {
				snap, _, _, err := g.v.ApplyDelta([]graph.Edge{{Src: 1, Dst: 2}})
				if err != nil {
					t.Fatal(err)
				}
				g.bind(snap) // the epoch's out-degrees are not the miss's to pay
			}},
		{name: "pagerank bypass", q: pr(5, true), budget: 8 * n, keepsSlot: true},
		{name: "cc", q: &query{kind: kindCC}, budget: 8 * n},
		{name: "cc bypass", q: &query{kind: kindCC, bypass: true}, budget: 8 * n},
		{name: "bfs bypass", q: &query{kind: kindBFS, source: 1, bypass: true}, budget: 4 * n},
	} {
		best := ^uint64(0)
		for try := 0; try < 6; try++ {
			if c.prep != nil {
				c.prep()
			}
			g.mu.Lock()
			slot := g.ranks
			g.mu.Unlock()
			resumed := s.prResumed.Value()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if c.first != nil {
				run(c.first)
			}
			run(c.q)
			runtime.ReadMemStats(&after)
			if try == 0 {
				continue // the first miss is the one that sizes the vectors
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
			if got := s.prResumed.Value() - resumed; got != c.resumed {
				t.Errorf("%s: resumed %d sweeps, want %d", c.name, got, c.resumed)
			}
			g.mu.Lock()
			kept := g.ranks
			g.mu.Unlock()
			if c.keepsSlot && (kept.epoch != slot.epoch || kept.jump != slot.jump || kept.sweeps != slot.sweeps || &kept.vec[0] != &slot.vec[0]) {
				t.Errorf("%s: the slot went from %d sweeps at epoch %d to %d at %d, or changed its vector",
					c.name, slot.sweeps, slot.epoch, kept.sweeps, kept.epoch)
			}
		}
		t.Logf("warm %s miss: %d bytes allocated, budget %d", c.name, best, c.budget)
		if best >= c.budget {
			t.Errorf("warm %s miss allocates %d bytes, want under %d for n = %d", c.name, best, c.budget, n)
		}
	}
}
