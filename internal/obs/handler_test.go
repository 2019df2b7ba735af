package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// exportTracks fetches /debug/traces/export from h and returns the request
// IDs of its tracks (one "request" slice per exported trace), failing
// unless the response is a downloadable attachment.
func exportTracks(t *testing.T, h http.Handler) []string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/export", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("export status %d: %s", w.Code, w.Body.String())
	}
	if cd := w.Header().Get("Content-Disposition"); !strings.HasPrefix(cd, "attachment") {
		t.Errorf("export Content-Disposition = %q, want an attachment", cd)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("export is not trace-event JSON: %v", err)
	}
	var ids []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "request" {
			ids = append(ids, ev.Args["request_id"].(string))
		}
	}
	return ids
}

// TestHandleTracesExportIdentity pins the export's identity rule — request
// ID plus root span ID: traces sharing a request ID and a trace ID (the
// probes of one mediator request) are distinct tracks, a trace held in both
// the recent and slowest lists exports once, and synthetic traces without a
// span ID all survive.
func TestHandleTracesExportIdentity(t *testing.T) {
	start := time.Unix(1700000000, 0)
	probe := func(span string, ms float64) Trace {
		return Trace{ID: "req-1", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
			SpanID: span, Query: "Make=Ford", Start: start, ElapsedMs: ms}
	}
	ring := NewRing(8)
	for _, tr := range []Trace{
		probe("00f067aa0ba902b7", 2),
		probe("b7ad6b7169203331", 3),
		{ID: "drift-1", Query: "[drift] max PSI 0.400 on [Price]", Start: start},
		{ID: "drift-2", Query: "[drift] max PSI 0.500 on [Price]", Start: start},
	} {
		ring.Add(tr)
	}
	mux := http.NewServeMux()
	HandleTraces(mux, ring)

	got := exportTracks(t, mux)
	want := []string{"drift-2", "drift-1", "req-1", "req-1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("exported tracks %v, want %v", got, want)
	}

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var out struct {
		Retained int `json:"retained"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v", err)
	}
	if out.Retained != 4 {
		t.Errorf("/debug/traces retained %d, want 4", out.Retained)
	}
}

// TestHandleTracesDisabled: with no ring both surfaces answer 404.
func TestHandleTracesDisabled(t *testing.T) {
	mux := http.NewServeMux()
	HandleTraces(mux, nil)
	for _, path := range []string{"/debug/traces", "/debug/traces/export"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: status %d, want 404", path, w.Code)
		}
	}
}
