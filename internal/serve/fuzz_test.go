package serve

import (
	"errors"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzParseQuery feeds parseQuery arbitrary query kinds and raw query
// strings, the bytes every /query/ request brings from outside. Each input
// must fail with a badRequestError, or parse to a query whose float
// parameters are finite and whose fingerprint, requested again, parses to
// the same fingerprint: the cache key is canonical, so two spellings of
// one query can never hold two entries.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []struct{ kind, raw string }{
		{"pagerank", "graph=social"},
		{"pagerank", "graph=social&iters=20&jump=0.3&tol=0&k=10"},
		{"pagerank", "graph=social&jump=NaN"},
		{"pagerank", "graph=social&jump=NaN&k=0"},
		{"pagerank", "graph=social&jump=-Inf"},
		{"pagerank", "graph=social&tol=NaN"},
		{"pagerank", "graph=social&tol=+Inf"},
		{"pagerank", "graph=social&tol=-0"},
		{"pagerank", "graph=web&tol=1e400&jump=0x1p-2"},
		{"pagerank", "graph=0&tol=1e10"}, // %g writes 1e+10: the '+' must be escaped
		{"bfs", "graph=web&source=4294967296"},
		{"datalog", "graph=social&source=2&rule=" + url.QueryEscape(defaultDatalogRule)},
		{"cc", "graph=social"},
		{"tc", "graph=social%26k%3D1"},
		{"wat", "graph=social"},
	} {
		f.Add(seed.kind, seed.raw)
	}
	var s *Server // parseQuery reads only the request
	parse := func(kind, raw string) (*query, error) {
		return s.parseQuery(&http.Request{URL: &url.URL{Path: "/query/" + kind, RawQuery: raw}, Header: http.Header{}})
	}
	f.Fuzz(func(t *testing.T, kind, raw string) {
		q, err := parse(kind, raw)
		if err != nil {
			var bad *badRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("%s?%s: error %v is not a bad request", kind, raw, err)
			}
			return
		}
		for _, v := range []float64{q.jump, q.tol} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s?%s: parsed a non-finite parameter %v", kind, raw, v)
			}
		}
		fp := q.fingerprint()
		again, params, _ := strings.Cut(fp, "?")
		if params != "" {
			params += "&"
		}
		q2, err := parse(again, params+"graph="+url.QueryEscape(q.graph))
		if err != nil {
			t.Fatalf("%s?%s: fingerprint %q does not parse back: %v", kind, raw, fp, err)
		}
		if fp2 := q2.fingerprint(); fp2 != fp {
			t.Fatalf("%s?%s: fingerprint %q parses back as %q", kind, raw, fp, fp2)
		}
	})
}
