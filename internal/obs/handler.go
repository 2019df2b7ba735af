package obs

import (
	"encoding/json"
	"net/http"
)

// HandleTraces mounts the trace surfaces on mux, reading ring (nil
// disables them) at request time:
//
//	GET /debug/traces         the ring's recent and slowest traces
//	GET /debug/traces/export  every retained trace once, as Chrome
//	                          trace-event JSON (Perfetto, chrome://tracing)
//
// Both answer 404 when ring is nil.
func HandleTraces(mux *http.ServeMux, ring *Ring) {
	if ring == nil {
		off := func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusNotFound,
				map[string]string{"error": "tracing disabled (no trace ring)"})
		}
		mux.HandleFunc("GET /debug/traces", off)
		mux.HandleFunc("GET /debug/traces/export", off)
		return
	}
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		recent, slowest := ring.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{"retained": len(recent), "recent": recent, "slowest": slowest})
	})
	mux.HandleFunc("GET /debug/traces/export", func(w http.ResponseWriter, _ *http.Request) {
		recent, slowest := ring.Snapshot()
		// A trace is identified by its request ID plus its root span ID:
		// every probe of one mediator request shares the request ID (and the
		// trace ID) but has a root span of its own, while synthetic traces
		// carry no span ID and a request ID of their own.
		seen := map[[2]string]bool{}
		var traces []Trace
		for _, group := range [][]Trace{recent, slowest} {
			for _, t := range group {
				if key := [2]string{t.ID, t.SpanID}; !seen[key] {
					seen[key] = true
					traces = append(traces, t)
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="aimq-traces.json"`)
		_ = WriteChromeTrace(w, traces)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
