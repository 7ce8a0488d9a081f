package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"graphmaze/internal/graph"
)

// TestPageRankResumeMatchesCold is the standing differential test of the
// carried rank vector. On symmetrized and directed graphs whose vertex
// space grows with every delta, each round asks every fixed-iters query
// (iters 1 to 37 at two jumps) and a tol query per jump — in a random
// order, or every other round in ascending iters — with no-cache requests
// interleaved, and a straggler pinned to the
// previous round's snapshot executes after the new epoch's first miss.
// Every body must equal the no-cache body and a fresh server's, handed the
// graph already at that epoch.
func TestPageRankResumeMatchesCold(t *testing.T) {
	var paths []string
	var pathIters []int
	for _, jump := range []string{"0.3", "0.15"} {
		for _, iters := range []int{1, 5, 10, 20, 37} {
			paths = append(paths, fmt.Sprintf("/query/pagerank?graph=g&iters=%d&jump=%s&k=4", iters, jump))
			pathIters = append(pathIters, iters)
		}
		paths = append(paths, "/query/pagerank?graph=g&iters=60&tol=1e-7&jump="+jump+"&k=4")
		pathIters = append(pathIters, 60)
	}
	rounds := 8
	if testing.Short() {
		rounds = 4
	}
	for _, procs := range []int{1, 4} {
		for _, sym := range []bool{true, false} {
			t.Run(fmt.Sprintf("procs%d/sym%v", procs, sym), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				seed := int64(10 * procs)
				if sym {
					seed++
				}
				rng := rand.New(rand.NewSource(seed))
				f := newRefreshFixture(rng, sym, 0)
				for top := f.n; len(f.deltas) < 3*rounds; top++ {
					f.deltas = append(f.deltas, []graph.Edge{
						{Src: uint32(rng.Intn(int(top))), Dst: top},
						{Src: top, Dst: uint32(rng.Intn(int(top)))},
						{Src: uint32(rng.Intn(int(top))), Dst: uint32(rng.Intn(int(top)))},
					})
				}
				s, ts := serveOne(t, f.versioned(t, 0))
				// The straggler is the one query asking for k=3: it parks
				// with its snapshot pinned until the test releases it, or
				// ends (a failed test must not leave it holding the server).
				entered, release, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
				t.Cleanup(func() { close(stop) })
				s.beforeExecute = func(q query) {
					if q.topK == 3 {
						select {
						case entered <- struct{}{}:
						case <-stop:
							return
						}
						select {
						case <-release:
						case <-stop:
						}
					}
				}
				var late chan []byte
				var lateWant []byte
				applied := 0
				for round := 0; round < rounds; round++ {
					_, fresh := serveOne(t, f.versioned(t, applied))
					order := rng.Perm(len(paths))
					if round%2 == 1 {
						// Every other round asks in ascending iters, the jumps
						// interleaved: the order that resumes.
						sort.SliceStable(order, func(a, b int) bool { return pathIters[order[a]] < pathIters[order[b]] })
					}
					for i, pi := range order {
						p := paths[pi]
						if rng.Intn(3) == 0 {
							b := paths[rng.Intn(len(paths))]
							_, xcache, body := get(t, ts.URL+b, noCache)
							if _, _, want := get(t, fresh.URL+b, noCache); xcache != "bypass" || !bytes.Equal(body, want) {
								t.Fatalf("epoch %d %s (X-Cache %q):\n no-cache %s\n    fresh %s", applied, b, xcache, body, want)
							}
						}
						code, xcache, body := get(t, ts.URL+p, nil)
						if code != http.StatusOK || xcache != "miss" {
							t.Fatalf("epoch %d %s: status %d X-Cache %q", applied, p, code, xcache)
						}
						_, _, cold := get(t, ts.URL+p, noCache)
						_, _, want := get(t, fresh.URL+p, noCache)
						if !bytes.Equal(body, want) || !bytes.Equal(cold, want) {
							t.Fatalf("epoch %d %s:\n   served %s\n no-cache %s\n    fresh %s", applied, p, body, cold, want)
						}
						if i == 0 && late != nil {
							release <- struct{}{}
							if got := <-late; !bytes.Equal(got, lateWant) {
								t.Fatalf("straggler:\n got %s\nwant %s", got, lateWant)
							}
							late = nil
						}
					}
					if round == rounds-1 {
						fresh.Close()
						break
					}
					// A fixed-iters path (the first five of either jump's six).
					sp := strings.Replace(paths[rng.Intn(5)+6*rng.Intn(2)], "k=4", "k=3", 1)
					_, _, lateWant = get(t, fresh.URL+sp, noCache)
					fresh.Close()
					late = make(chan []byte, 1)
					go func() {
						var body []byte
						if resp, err := http.Get(ts.URL + sp); err == nil {
							body, _ = io.ReadAll(resp.Body)
							resp.Body.Close()
						}
						late <- body
					}()
					<-entered
					for k := 1 + rng.Intn(3); k > 0; k-- {
						postEdges(t, ts.URL, "g", f.deltas[applied])
						applied++
					}
				}
				// Some answers came from a resumed run, or the test compared
				// cold runs with cold runs.
				if s.prResumed.Value() == 0 {
					t.Error("no miss resumed the carried ranks")
				}
			})
		}
	}
}

// TestPageRankSweepCounters pins serve.pagerank.sweeps (sweeps run) and
// serve.pagerank.resumed_sweeps (sweeps a resumed miss skipped) exactly.
// With a one-byte cache, which stores no body, every request below is a
// miss: iters 5, 10, 20 at one epoch run 20 sweeps and resume 15; 20, 10,
// 5 at the next run all 35, because the slot keeps the longest run; iters
// 20 asked again, uncached, runs none. A no-cache request runs cold, and so does a
// shorter run than the slot holds; both leave the slot alone.
func TestPageRankSweepCounters(t *testing.T) {
	s := New(Config{Workers: 2, CacheBytes: 1})
	t.Cleanup(s.Close)
	if err := s.AddGraph("social", buildVersioned(t, 7, true, 42)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	run, resumed := s.reg.Counter("serve.pagerank.sweeps"), s.reg.Counter("serve.pagerank.resumed_sweeps")
	step := func(what string, hdr map[string]string, iters []int, wantRun, wantResumed int64) {
		t.Helper()
		run0, resumed0 := run.Value(), resumed.Value()
		for _, it := range iters {
			code, xcache, _ := get(t, fmt.Sprintf("%s/query/pagerank?graph=social&iters=%d", ts.URL, it), hdr)
			if code != http.StatusOK || (xcache != "miss" && xcache != "bypass") {
				t.Fatalf("%s: iters=%d answered %d, X-Cache %q", what, it, code, xcache)
			}
		}
		if got, gotResumed := run.Value()-run0, resumed.Value()-resumed0; got != wantRun || gotResumed != wantResumed {
			t.Errorf("%s: %d sweeps run and %d resumed, want %d and %d", what, got, gotResumed, wantRun, wantResumed)
		}
	}
	step("ascending", nil, []int{5, 10, 20}, 20, 15)
	postEdges(t, ts.URL, "social", []graph.Edge{{Src: 1, Dst: 2}})
	step("descending at the next epoch", nil, []int{20, 10, 5}, 35, 0)
	step("evicted and asked again", nil, []int{20}, 0, 20)
	step("no-cache", noCache, []int{20}, 20, 0)
	step("shorter than the slot", nil, []int{10}, 10, 0)
	step("evicted and asked again after both", nil, []int{20}, 0, 20)
}

// TestEpochGaugeFollowsConcurrentDeltas: several clients post deltas to one
// graph at once, round after round, and after every round the
// serve.graph.<name>.epoch gauge reads the epoch /graphs lists. The gauge
// moves under the lock that orders epochs, so a delta that finished first
// can never publish its older epoch last.
func TestEpochGaugeFollowsConcurrentDeltas(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	gauge := s.reg.Gauge("serve.graph.social.epoch")
	const posters = 4
	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for p := 0; p < posters; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"graph":"social","edges":[[%d,%d]]}`, p, 2*round+p+1)
				resp, err := http.Post(ts.URL+"/delta", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST /delta: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /delta %s: status %d", body, resp.StatusCode)
				}
			}(p)
		}
		wg.Wait()
		_, _, listing := get(t, ts.URL+"/graphs", nil)
		var infos []graphInfo
		if err := json.Unmarshal(listing, &infos); err != nil {
			t.Fatalf("/graphs: %v", err)
		}
		for _, info := range infos {
			if info.Name == "social" && gauge.Value() != float64(info.Epoch) {
				t.Fatalf("round %d: serve.graph.social.epoch = %v, /graphs says epoch %d", round, gauge.Value(), info.Epoch)
			}
		}
	}
}
