package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Only the fields the viewers require
// are emitted: ph, ts, pid, tid, plus name/cat/dur/args.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"` // 0: a track is one thread
	DurUS *float64       `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level object form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorded spans and final counter values as
// Chrome trace-event JSON: metadata names each track, every span becomes a
// complete ("X") event with microsecond timestamps, and each counter
// becomes one "C" sample at the end of the timeline. Events are sorted by
// timestamp, so the output is monotonic. Open the file at
// https://ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: cannot export a disabled (nil) tracer")
	}
	events := t.Events()
	procs := t.processNames()

	var out chromeTrace
	out.DisplayTimeUnit = "ms"

	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": procs[pid]},
		})
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].StartNS != events[j].StartNS {
			return events[i].StartNS < events[j].StartNS
		}
		return events[i].Pid < events[j].Pid
	})
	var lastUS float64
	for _, ev := range events {
		dur := float64(ev.DurNS) / 1e3
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Ph: "X",
			TsUS: float64(ev.StartNS) / 1e3,
			Pid:  ev.Pid, DurUS: &dur,
		}
		if len(ev.Args) > 0 {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				args[k] = v
			}
			ce.Args = args
		}
		if end := ce.TsUS + dur; end > lastUS {
			lastUS = end
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	for _, c := range t.reg.Snapshot().Counters {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: c.Name, Ph: "C", TsUS: lastUS, Pid: PidHost,
			Args: map[string]any{"value": c.Value},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteChromeTraceFile exports the trace to path (see WriteChromeTrace).
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
