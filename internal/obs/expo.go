package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes a dotted registry name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_', and the namespace is
// prefixed ("giraph.messages" -> "graphmaze_giraph_messages").
func promName(namespace, name string) string {
	var b strings.Builder
	b.Grow(len(namespace) + 1 + len(name))
	b.WriteString(namespace)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus text format expects.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format under the given namespace. Counters get a _total suffix;
// histograms emit cumulative le buckets (only non-empty buckets plus the
// mandatory +Inf), _sum, and _count. The output is deterministic for a
// deterministic snapshot — the golden-file test pins it.
func WritePrometheus(w io.Writer, s *Snapshot, namespace string) error {
	if s == nil {
		return nil
	}
	for _, c := range s.Counters {
		n := promName(namespace, c.Name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(namespace, g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		n := promName(namespace, h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum int64
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			// le is the largest value this bucket holds (buckets span
			// [low, low+width) over integers, le bounds are inclusive).
			le := bucketLow(i) + bucketWidth(i) - 1
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonSnapshot is the expvar-style JSON shape: flat name->value maps for
// counters and gauges, name->quantile-summary for histograms. Maps
// marshal with sorted keys, so this is deterministic too.
type jsonSnapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]Quantiles `json:"histograms,omitempty"`
}

// WriteJSON renders the snapshot as indented expvar-style JSON.
func WriteJSON(w io.Writer, s *Snapshot) error {
	out := jsonSnapshot{}
	if s != nil {
		if len(s.Counters) > 0 {
			out.Counters = make(map[string]int64, len(s.Counters))
			for _, c := range s.Counters {
				out.Counters[c.Name] = c.Value
			}
		}
		if len(s.Gauges) > 0 {
			out.Gauges = make(map[string]float64, len(s.Gauges))
			for _, g := range s.Gauges {
				out.Gauges[g.Name] = g.Value
			}
		}
		if len(s.Hists) > 0 {
			out.Histograms = make(map[string]Quantiles, len(s.Hists))
			for _, h := range s.Hists {
				out.Histograms[h.Name] = h.Summary()
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// HistStats converts a snapshot's histograms into a sorted list of named
// quantile summaries — the shape embedded in trace report summaries.
func HistStats(s *Snapshot) []NamedQuantiles {
	if s == nil {
		return nil
	}
	var out []NamedQuantiles
	for _, h := range s.Hists {
		if h.Count <= 0 {
			continue
		}
		out = append(out, NamedQuantiles{Name: h.Name, Quantiles: h.Summary()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedQuantiles pairs a histogram name with its quantile summary.
type NamedQuantiles struct {
	Name string `json:"name"`
	Quantiles
}
