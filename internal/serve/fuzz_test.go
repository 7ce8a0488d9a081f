package serve

import (
	"errors"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"graphmaze/internal/graph"
)

// FuzzParseQuery feeds parseQuery arbitrary query kinds and raw query
// strings, the bytes every /query/ request brings from outside. Each input
// must fail with a badRequestError, or parse to a query whose float
// parameters are finite and whose fingerprint, requested again, parses to
// the same fingerprint: the cache key is canonical, so two spellings of
// one query can never hold two entries. parseQuery reads the raw query
// string in place; oracleParseQuery, the url.Values reader it replaced,
// must agree with it on every input — error or not, and the fingerprint,
// graph, tenant and bypass of a parsed query.
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
		{"pagerank", "graph=social&tol=1e%2B3&k=+5"},
		{"pagerank", "graph=social&iters=%zz&iters=7"},
		{"pagerank", "graph=social;k=3&k=4"},
		{"pagerank", "graph=social&k=3&k=4&tenant=a&tenant=b"},
		{"pagerank", "=5&graph=social&&=&iters"},
		{"bfs", "graph=web&source=4294967296"},
		{"bfs", "gr%61ph=web&source=1%3B2"},
		{"datalog", "graph=social&source=2&rule=" + url.QueryEscape(defaultDatalogRule)},
		{"datalog", "graph=social&rule=REACH(t,+$MIN(d))+:-+REACH(s,+d0),+d+=+d0+%2B+1,+EDGE(s,+t)."},
		{"cc", "graph=social"},
		{"tc", "graph=social%26k%3D1"},
		{"wat", "graph=social"},
	} {
		f.Add(seed.kind, seed.raw)
	}
	request := func(kind, raw string) *http.Request {
		return &http.Request{URL: &url.URL{Path: "/query/" + kind, RawQuery: raw}, Header: http.Header{}}
	}
	f.Fuzz(func(t *testing.T, kind, raw string) {
		r := request(kind, raw)
		q, err := parseQuery(r)
		want, wantErr := oracleParseQuery(r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s?%s: error %v, the url.Values reader's %v", kind, raw, err, wantErr)
		}
		if err != nil {
			var bad *badRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("%s?%s: error %v is not a bad request", kind, raw, err)
			}
			return
		}
		fp := q.fingerprint()
		if fp != want.fingerprint() || q.graph != want.graph || q.bypass != want.bypass {
			t.Fatalf("%s?%s: parsed %q on %q (bypass %v), the url.Values reader %q on %q (bypass %v)",
				kind, raw, fp, q.graph, q.bypass, want.fingerprint(), want.graph, want.bypass)
		}
		if got, want := tenantOf(r), oracleTenantOf(r); got != want {
			t.Fatalf("%s?%s: tenant %q, the url.Values reader's %q", kind, raw, got, want)
		}
		for _, v := range []float64{q.jump, q.tol} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s?%s: parsed a non-finite parameter %v", kind, raw, v)
			}
		}
		again, params, _ := strings.Cut(fp, "?")
		if params != "" {
			params += "&"
		}
		q2, err := parseQuery(request(again, params+"graph="+url.QueryEscape(q.graph)))
		if err != nil {
			t.Fatalf("%s?%s: fingerprint %q does not parse back: %v", kind, raw, fp, err)
		}
		if fp2 := q2.fingerprint(); fp2 != fp {
			t.Fatalf("%s?%s: fingerprint %q parses back as %q", kind, raw, fp, fp2)
		}
		if q2 != q {
			t.Fatalf("%s?%s: fingerprint %q parses back to another cache key: %+v, was %+v", kind, raw, fp, q2, q)
		}
	})
}

// oracleTenantOf is tenantOf over URL.Query.
func oracleTenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// oracleParseQuery is the parser parseQuery replaced: the same checks in
// the same order, over url.Values from URL.Query.
func oracleParseQuery(r *http.Request) (*query, error) {
	kind := r.URL.Path[len("/query/"):]
	q := &query{kind: kind, bypass: strings.Contains(r.Header.Get("Cache-Control"), "no-cache")}
	vals := r.URL.Query()
	q.graph = vals.Get("graph")
	if q.graph == "" {
		return nil, badRequest("missing graph parameter")
	}
	var err error
	switch kind {
	case kindPageRank:
		if q.iters, err = oracleIntParam(vals, "iters", 20); err != nil {
			return nil, err
		}
		if q.iters < 1 || q.iters > 1000 {
			return nil, badRequest("iters must be in [1,1000]")
		}
		if q.jump, err = oracleFloatParam(vals, "jump", 0.3); err != nil {
			return nil, err
		}
		if !(q.jump > 0 && q.jump < 1) {
			return nil, badRequest("jump must be in (0,1)")
		}
		if q.tol, err = oracleFloatParam(vals, "tol", 0); err != nil {
			return nil, err
		}
		if !(q.tol >= 0 && q.tol <= math.MaxFloat64) {
			return nil, badRequest("tol must be finite and >= 0")
		}
		if q.tol == 0 {
			q.tol = 0
		}
		if q.topK, err = oracleIntParam(vals, "k", 10); err != nil {
			return nil, err
		}
		if q.topK < 0 || q.topK > 1000 {
			return nil, badRequest("k must be in [0,1000]")
		}
	case kindBFS, kindDatalog:
		src, err := oracleIntParam(vals, "source", 0)
		if err != nil {
			return nil, err
		}
		if src < 0 || int64(src) > math.MaxUint32 {
			return nil, badRequest("source must be in [0,%d]", uint32(math.MaxUint32))
		}
		q.source = graph.MustU32(int64(src))
		if kind == kindDatalog {
			q.rule = vals.Get("rule")
			if q.rule == "" {
				q.rule = defaultDatalogRule
			}
			if len(q.rule) > maxRuleBytes {
				return nil, badRequest("rule is %d bytes, over the %d-byte limit", len(q.rule), maxRuleBytes)
			}
		}
	case kindCC, kindTC:
	default:
		return nil, badRequest("unknown query kind %q (have %v)", kind, queryKinds())
	}
	return q, nil
}

func oracleIntParam(vals url.Values, name string, def int) (int, error) {
	s := vals.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	return v, nil
}

func oracleFloatParam(vals url.Values, name string, def float64) (float64, error) {
	s := vals.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badRequest("bad %s: %v", name, err)
	}
	return v, nil
}
