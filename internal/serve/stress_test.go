package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"graphmaze/internal/graph"
)

// TestConcurrentDeltaQueryStress drives queries and delta ingestion
// concurrently (run it with -race). It checks the two epoch-consistency
// properties the cache depends on:
//
//  1. A query pinned to an old epoch keeps serving that epoch's result,
//     stale but internally consistent, no matter how many deltas land
//     while it runs — verified by recomputing on the retained snapshot
//     after all ingestion settles and comparing bytes.
//  2. A query arriving after an epoch advance misses the cache (the key
//     moved) and reports the new epoch.
func TestConcurrentDeltaQueryStress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 8, QueueDepth: 64})

	const writers = 2
	const readers = 4
	const deltasPerWriter = 8
	const queriesPerReader = 30

	paths := []string{
		"/query/cc?graph=social",
		"/query/pagerank?graph=social&iters=5&k=3",
		"/query/bfs?graph=social&source=1",
		"/query/tc?graph=social",
	}

	// Pin epoch 0's state before any deltas: snapshot handle plus the
	// served bytes for one query of each kind.
	g, ok := s.graphByName("social")
	if !ok {
		t.Fatal("social not registered")
	}
	epoch0 := g.v.Current()
	baseline := make(map[string][]byte)
	for _, p := range paths {
		code, _, body := get(t, ts.URL+p, nil)
		if code != http.StatusOK {
			t.Fatalf("baseline GET %s: %d", p, code)
		}
		baseline[p] = body
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < deltasPerWriter; i++ {
				src := uint32(2 + w*37 + i*11)
				dst := uint32(5 + w*13 + i*7)
				body := fmt.Sprintf(`{"graph":"social","edges":[[%d,%d]]}`, src%128, dst%128)
				resp, err := http.Post(ts.URL+"/delta", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST /delta: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("delta status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; i < queriesPerReader; i++ {
				p := paths[(rdr+i)%len(paths)]
				req, _ := http.NewRequest(http.MethodGet, ts.URL+p, nil)
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", rdr))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				var meta queryMeta
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
						t.Errorf("decode %s: %v", p, err)
					}
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
					// Shedding under stress is legal; wrong answers are not.
				default:
					t.Errorf("GET %s: status %d", p, resp.StatusCode)
				}
			}
		}(rdr)
	}
	wg.Wait()

	if e := g.v.Epoch(); e != graph.Epoch(writers*deltasPerWriter) {
		t.Fatalf("epoch after stress = %d, want %d", e, writers*deltasPerWriter)
	}

	// One more delta after the stress settles: readers may have cached
	// results at the stress-final epoch, so advance once more to a
	// guaranteed-uncached epoch before asserting miss-then-hit.
	if _, _, _, err := g.v.ApplyDelta([]graph.Edge{{Src: 3, Dst: 17}}); err != nil {
		t.Fatalf("final ApplyDelta: %v", err)
	}
	finalEpoch := g.v.Epoch()

	// Property 1: recomputing on the retained epoch-0 snapshot reproduces
	// the pre-delta bytes exactly — the snapshot stayed immutable under
	// 16 concurrent rebuilds.
	for _, p := range paths {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+p, nil)
		q, err := parseQuery(req)
		if err != nil {
			t.Fatalf("parseQuery %s: %v", p, err)
		}
		body, err := s.execute(g, epoch0, &q)
		if err != nil {
			t.Fatalf("execute %s on epoch 0: %v", p, err)
		}
		if !bytes.Equal(body, baseline[p]) {
			t.Errorf("%s: epoch-0 recompute differs from pre-delta bytes\nwas: %s\nnow: %s", p, baseline[p], body)
		}
	}

	// Property 2: a fresh query misses (new epoch key) and reports the
	// final epoch; a second hits with identical bytes.
	for _, p := range paths {
		code, state, first := get(t, ts.URL+p, nil)
		if code != http.StatusOK || state != "miss" {
			t.Fatalf("post-stress GET %s: status %d X-Cache %q, want 200 miss", p, code, state)
		}
		var meta queryMeta
		if err := json.Unmarshal(first, &meta); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if meta.Epoch != uint64(finalEpoch) {
			t.Errorf("%s: epoch %d, want %d", p, meta.Epoch, finalEpoch)
		}
		code, state, second := get(t, ts.URL+p, nil)
		if code != http.StatusOK || state != "hit" {
			t.Fatalf("post-stress GET %s (2nd): status %d X-Cache %q, want 200 hit", p, code, state)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: cache hit differs from recompute at final epoch", p)
		}
	}
}
