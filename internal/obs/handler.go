package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// HandleTraces mounts the trace surfaces on mux, reading ring and flight
// (either may be nil) at request time:
//
//	GET /debug/traces         the ring's recent and slowest traces, plus the
//	                          flight recorder's threshold, counts and traces
//	GET /debug/traces/export  every retained trace once, as Chrome
//	                          trace-event JSON (Perfetto, chrome://tracing)
//
// Both answer 404 when ring and flight are nil.
func HandleTraces(mux *http.ServeMux, ring *Ring, flight *Flight) {
	if ring == nil && flight == nil {
		off := func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusNotFound,
				map[string]string{"error": "tracing disabled (no trace ring or flight recorder)"})
		}
		mux.HandleFunc("GET /debug/traces", off)
		mux.HandleFunc("GET /debug/traces/export", off)
		return
	}
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		recent, slowest := ring.Snapshot()
		out := map[string]any{"retained": len(recent), "recent": recent, "slowest": slowest}
		if flight != nil {
			frecent, fslowest := flight.Snapshot()
			seen, kept := flight.Stats()
			out["flight"] = map[string]any{
				"threshold_ms": float64(flight.Threshold()) / float64(time.Millisecond),
				"seen":         seen,
				"kept":         kept,
				"recent":       frecent,
				"slowest":      fslowest,
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /debug/traces/export", func(w http.ResponseWriter, _ *http.Request) {
		recent, slowest := ring.Snapshot()
		frecent, fslowest := flight.Snapshot()
		// A trace is identified by its request ID plus its root span ID:
		// every probe of one mediator request shares the request ID (and the
		// trace ID) but has a root span of its own, while synthetic traces
		// carry no span ID and a request ID of their own.
		seen := map[[2]string]bool{}
		var traces []Trace
		for _, group := range [][]Trace{recent, slowest, frecent, fslowest} {
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
