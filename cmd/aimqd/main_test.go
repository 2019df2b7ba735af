package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/obs"
	"aimq/internal/webdb"
)

// TestTraceExportKeepsEveryProbe drives aimqd's handler the way a mediator
// does: two /query probes of one mediator request carry the same
// X-Request-ID and the same traceparent. Both are retained, and the export
// lists each as its own track, served as a download.
func TestTraceExportKeepsEveryProbe(t *testing.T) {
	h := handler(webdb.NewLocal(datagen.GenerateCarDB(300, 1).Rel), 16)
	caller := obs.NewTraceContext()
	for _, target := range []string{"/query?Make=Ford&limit=5", "/query?Make=Toyota&limit=5"} {
		r := httptest.NewRequest("GET", target, nil)
		r.Header.Set(obs.RequestIDHeader, "mediator-req-1")
		r.Header.Set(obs.TraceparentHeader, caller.Header())
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var list struct {
		Retained int         `json:"retained"`
		Recent   []obs.Trace `json:"recent"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v", err)
	}
	if list.Retained != 2 {
		t.Fatalf("retained %d probe traces, want 2", list.Retained)
	}
	for _, tr := range list.Recent {
		if tr.ID != "mediator-req-1" || tr.TraceID != caller.TraceID {
			t.Errorf("probe trace %s/%s, want the mediator's request and trace IDs", tr.ID, tr.TraceID)
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/export", nil))
	if cd := w.Header().Get("Content-Disposition"); !strings.HasPrefix(cd, "attachment") {
		t.Errorf("export Content-Disposition = %q, want an attachment", cd)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("export is not trace-event JSON: %v", err)
	}
	tracks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks++
		}
	}
	if tracks != 2 {
		t.Errorf("export has %d tracks for 2 retained probes, want 2", tracks)
	}
}
