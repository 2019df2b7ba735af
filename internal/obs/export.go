package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON object
// format") that Perfetto and chrome://tracing load. "X" events are complete
// slices with a duration; "M" events are metadata (thread names).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level export document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes finished traces as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each trace
// becomes one thread track (tid = position in the list, newest first as the
// ring returns them) named after its query; the whole request is a root
// slice with the span tree nested inside by timestamp. Timestamps are the
// traces' wall-clock microseconds, so concurrent requests line up on a
// shared timeline.
func WriteChromeTrace(w io.Writer, traces []Trace) error {
	events := make([]chromeEvent, 0, len(traces)*8)
	for i, t := range traces {
		tid := i + 1
		base := float64(t.Start.UnixMicro())
		name := t.Query
		if name == "" {
			name = t.ID
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
		rootArgs := map[string]any{
			"request_id": t.ID,
			"trace_id":   t.TraceID,
			"span_id":    t.SpanID,
		}
		if t.ParentSpan != "" {
			rootArgs["parent_span"] = t.ParentSpan
		}
		if t.BaseQuery != "" {
			rootArgs["base_query"] = t.BaseQuery
			rootArgs["base_count"] = t.BaseCount
		}
		if n := t.NumSteps(); n > 0 {
			rootArgs["relax_steps"] = n
		}
		if len(t.Answers) > 0 {
			rootArgs["answers"] = len(t.Answers)
		}
		if t.Err != "" {
			rootArgs["error"] = t.Err
		}
		events = append(events, chromeEvent{
			Name: "request", Ph: "X",
			Ts: base, Dur: t.ElapsedMs * 1000,
			Pid: 1, Tid: tid, Args: rootArgs,
		})
		for _, sp := range t.Spans {
			args := map[string]any{}
			if sp.ID != "" {
				args["span_id"] = sp.ID
			}
			if sp.Parent != "" {
				args["parent"] = sp.Parent
			}
			if len(args) == 0 {
				args = nil
			}
			events = append(events, chromeEvent{
				Name: sp.Name, Ph: "X",
				Ts: base + sp.StartMs*1000, Dur: sp.DurMs * 1000,
				Pid: 1, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
