package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span's id to the wrapping handler, so the
// server-side span names the client span as its parent.
const spanHeader = "X-Bench-Span"

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one request share Req (the root client span's id).
type span struct {
	Name   string
	Kind   string
	Start  int64 // ns since the tracer was created
	End    int64
	ID     int64
	Parent int64 // 0 for a root span
	Req    int64
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn and returns how long it took in ms, recording a root span
// when tracing is on.
func (t *tracer) timed(name, kind string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t != nil {
		id := t.newID()
		s := int64(start.Sub(t.t0))
		t.record(span{Name: name, Kind: kind, Start: s, End: s + int64(d), ID: id, Req: id})
	}
	return float64(d) / 1e6
}

// wrap returns h with a serve.handler span around every request, parented
// to the client span named in the request's spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		kind := w.Header().Get("X-Cache")
		if r.URL.Path == "/delta" {
			kind = "delta"
		}
		t.record(span{Name: "serve.handler", Kind: kind, Start: start, End: t.now(),
			ID: t.newID(), Parent: parent, Req: parent})
	})
}

// durationsMs returns the durations of the spans with the given name and,
// if kind is not empty, kind.
func (t *tracer) durationsMs(name, kind string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (kind == "" || s.Kind == kind) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerRow is one line of the per-layer table: a span name's count, total
// and self time (its spans' durations minus their children's) and median.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
	P50Ms   float64
}

// reduce folds the spans into one row per "name[kind]", ranked by self
// time. A span's children here run one after another inside it, so the
// part of the interval they cover is the sum of their durations.
func (t *tracer) reduce() []layerRow {
	if t == nil {
		return nil
	}
	childNs := make(map[int64]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	type acc struct {
		row  layerRow
		durs []float64
	}
	rows := make(map[string]*acc)
	for i := range t.spans {
		s := &t.spans[i]
		name := s.Name
		if s.Kind != "" {
			name += "[" + s.Kind + "]"
		}
		a := rows[name]
		if a == nil {
			a = &acc{row: layerRow{Name: name}}
			rows[name] = a
		}
		d := float64(s.End-s.Start) / 1e6
		a.row.Count++
		a.row.TotalMs += d
		a.row.SelfMs += d - float64(childNs[s.ID])/1e6
		a.durs = append(a.durs, d)
	}
	out := make([]layerRow, 0, len(rows))
	for _, a := range rows {
		a.row.P50Ms = quantile(a.durs, 0.5)
		out = append(out, a.row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeFile writes the spans as one JSON document: a table of the distinct
// names and kinds, then one row per span indexing into it.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)

	var strs []string
	index := make(map[string]int)
	intern := func(s string) int {
		i, ok := index[s]
		if !ok {
			i = len(strs)
			index[s] = i
			strs = append(strs, s)
		}
		return i
	}
	rows := slices.Clone(t.spans)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Start < rows[j].Start })
	type ref struct{ name, kind int }
	refs := make([]ref, len(rows))
	for i := range rows {
		refs[i] = ref{intern(rows[i].Name), intern(rows[i].Kind)}
	}
	fmt.Fprint(w, `{"columns":["name","kind","start_ns","end_ns","id","parent","request"],"strings":[`)
	for i, s := range strs {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(s))
	}
	w.WriteString("],\"spans\":[\n")
	for i := range rows {
		s := &rows[i]
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d]", refs[i].name, refs[i].kind, s.Start, s.End, s.ID, s.Parent, s.Req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
