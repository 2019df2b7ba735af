package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aimq/internal/obs"
	"aimq/internal/webdb"
)

// TestCrossProcessTracePropagation proves one trace ID spans three parties
// over real HTTP: a caller that mints a traceparent, the answering service
// that adopts it, and the autonomous source (a webdb server, the aimqd
// shape) whose probe traces join the same trace — with their parent spans
// pointing at the mediator's source_http spans.
func TestCrossProcessTracePropagation(t *testing.T) {
	rel := testDB(400, 7)

	// The "aimqd" side: a real HTTP server over the relation, tracing on.
	srcServer := webdb.NewServer(webdb.NewLocal(rel))
	srcServer.EnableTracing(obs.NewRing(256))
	ts := httptest.NewServer(srcServer)
	defer ts.Close()

	client, err := webdb.NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(t, rel, client, Config{SlowQuery: -1})

	// The caller's half: a minted traceparent on the /answer request.
	caller := obs.NewTraceContext()
	r := httptest.NewRequest("GET", "/answer?q=Model+like+Camry,+Price+like+10000&k=3&explain=true", nil)
	r.Header.Set(obs.TraceparentHeader, caller.Header())
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var out struct {
		Explain obs.Trace `json:"explain"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}

	// Hop 1: the service joined the caller's trace.
	if out.Explain.TraceID != caller.TraceID {
		t.Fatalf("service trace ID %q, want caller's %q", out.Explain.TraceID, caller.TraceID)
	}
	if out.Explain.ParentSpan != caller.SpanID {
		t.Errorf("service parent span %q, want caller's span %q", out.Explain.ParentSpan, caller.SpanID)
	}

	// Hop 2: every probe trace on the source server shares the same trace
	// ID, parented under one of the mediator's source_http spans.
	httpSpans := map[string]bool{}
	for _, sp := range out.Explain.Spans {
		if sp.Name == "source_http" {
			httpSpans[sp.ID] = true
		}
	}
	if len(httpSpans) == 0 {
		t.Fatal("mediator trace has no source_http spans — client instrumentation missing")
	}
	recent, _ := srcServer.Ring().Snapshot()
	if len(recent) == 0 {
		t.Fatal("source server recorded no traces")
	}
	for _, tr := range recent {
		if tr.TraceID != caller.TraceID {
			t.Errorf("source trace %s has trace ID %q, want %q", tr.ID, tr.TraceID, caller.TraceID)
		}
		if !httpSpans[tr.ParentSpan] {
			t.Errorf("source trace %s parent span %q is not a mediator source_http span", tr.ID, tr.ParentSpan)
		}
		if tr.ID == "" {
			t.Error("source trace lost its request ID")
		}
	}
	// The source-side traces carry the engine EXPLAIN of each probe.
	var withEngine int
	for _, tr := range recent {
		for _, bp := range tr.BaseProbe {
			if bp.Engine != nil {
				withEngine++
			}
		}
	}
	if withEngine == 0 {
		t.Error("no source trace carries an engine EXPLAIN")
	}
}

// TestWarmPathTracingOffAllocs pins the serve-warm allocation budget with
// tracing fully disabled (no ring): the observability
// layer must cost nothing when off. The 16-alloc bar matches the Makefile's
// serve-warm gate.
func TestWarmPathTracingOffAllocs(t *testing.T) {
	rel := testDB(600, 3)
	svc := newService(t, rel, nil, Config{SlowQuery: -1, TraceRing: -1})

	target := "/answer?q=Model+like+Camry,+Price+like+10000&k=5"
	r := httptest.NewRequest("GET", target, nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r) // prime the cache + raw index
	if w.Code != http.StatusOK {
		t.Fatalf("prime failed: %d %s", w.Code, w.Body.String())
	}

	dw := &discardResponseWriter{hdr: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		dw.code = 0
		svc.ServeHTTP(dw, r)
		if dw.code != http.StatusOK {
			t.Fatalf("warm request failed: %d", dw.code)
		}
	})
	if allocs > 16 {
		t.Errorf("warm serve path allocates %v/op with tracing off, budget 16", allocs)
	}
}

// discardResponseWriter drops the body so AllocsPerRun counts the service's
// allocations, not a recorder's buffer growth.
type discardResponseWriter struct {
	hdr  http.Header
	code int
}

func (w *discardResponseWriter) Header() http.Header         { return w.hdr }
func (w *discardResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestTraceSampling checks 1-in-N head sampling: with TraceSample=3, six
// computed answers land two traces in the ring — but explain requests are
// always traced.
func TestTraceSampling(t *testing.T) {
	rel := testDB(600, 3)
	svc := newService(t, rel, nil, Config{SlowQuery: -1, TraceSample: 3})

	models := []string{"Camry", "Corolla", "Accord", "Civic", "F150", "Focus"}
	for _, m := range models {
		code, out := do(t, svc, "GET", "/answer?q=Model+like+"+m, "")
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
	}
	code, out := do(t, svc, "GET", "/debug/traces", "")
	if code != http.StatusOK {
		t.Fatalf("traces status %d: %v", code, out)
	}
	if got := len(out["recent"].([]any)); got != 2 {
		t.Errorf("ring retained %d of 6 computed answers with TraceSample=3, want 2", got)
	}
	// Explain requests bypass sampling entirely.
	if _, eo := do(t, svc, "GET", "/answer?q=Class+like+truck&explain=true", ""); eo["explain"] == nil {
		t.Fatal("explain response lost its trace")
	}
	_, out = do(t, svc, "GET", "/debug/traces", "")
	if got := len(out["recent"].([]any)); got != 3 {
		t.Errorf("explain request not ring-retained: %d traces, want 3", got)
	}
}

// TestTracesExportDisabled: with the ring off, the export endpoint 404s
// like /debug/traces does.
func TestTracesExportDisabled(t *testing.T) {
	rel := testDB(200, 3)
	svc := newService(t, rel, nil, Config{SlowQuery: -1, TraceRing: -1})
	code, _ := do(t, svc, "GET", "/debug/traces/export", "")
	if code != http.StatusNotFound {
		t.Errorf("export with tracing disabled: status %d, want 404", code)
	}
}

// TestTracesExportOnBothMuxes: the main listener and the debug surface both
// serve the export as a download.
func TestTracesExportOnBothMuxes(t *testing.T) {
	svc := obsService(t)
	if code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry", ""); code != http.StatusOK {
		t.Fatalf("answer status %d: %v", code, out)
	}
	for name, h := range map[string]http.Handler{"main": svc, "debug": svc.DebugHandler()} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces/export", nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s mux: export status %d", name, w.Code)
		}
		if cd := w.Header().Get("Content-Disposition"); !strings.HasPrefix(cd, "attachment") {
			t.Errorf("%s mux: export Content-Disposition = %q, want an attachment", name, cd)
		}
	}
}

// TestMetricsEngineSeries: the /metrics exposition carries the boolean
// engine's execution counters (satellite of /debug/source), in a form the
// strict parser accepts, with values consistent with work actually done.
func TestMetricsEngineSeries(t *testing.T) {
	svc := obsService(t)
	if code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+9000&k=5", ""); code != http.StatusOK {
		t.Fatalf("answer status %d: %v", code, out)
	}

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	body := w.Body.String()
	if err := parseExposition(body); err != nil {
		t.Fatalf("exposition format violation: %v", err)
	}

	mustPositive := []string{
		"aimq_engine_queries_total",
		"aimq_engine_tuples_returned_total",
		"aimq_engine_busy_seconds_total",
		"aimq_engine_chunks_visited_total",
	}
	for _, name := range mustPositive {
		v, ok := sampleValue(body, name)
		if !ok {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0 after a computed answer", name, v)
		}
	}
	mustPresent := []string{
		"aimq_engine_tuples_scanned_total",
		"aimq_engine_tuples_counted_total",
		"aimq_engine_zone_killed_total",
		"aimq_engine_zone_skipped_total",
		"aimq_engine_posting_empty_total",
		"aimq_engine_dense_rows_total",
		"aimq_engine_sparse_checks_total",
		"aimq_engine_parallel_queries_total",
	}
	for _, name := range mustPresent {
		if _, ok := sampleValue(body, name); !ok {
			t.Errorf("series %s missing from /metrics", name)
		}
	}

	// Engine queries ≥ relaxation queries the service issued: every source
	// probe runs exactly one engine query, plus learning-free overhead none.
	eng, _ := sampleValue(body, "aimq_engine_queries_total")
	relax, _ := sampleValue(body, "aimq_service_relaxation_queries_total")
	if relax <= 0 || eng < relax {
		t.Errorf("engine queries %v < service relaxation queries %v", eng, relax)
	}
}

// TestMetricsEngineSeriesBehindResilient: the engine series must survive
// middleware wrapping (webdb.Resilient) via the Unwrap chain.
func TestMetricsEngineSeriesBehindResilient(t *testing.T) {
	rel := testDB(400, 5)
	src := webdb.NewResilient(webdb.NewLocal(rel), webdb.ResilientConfig{})
	svc := newService(t, rel, src, Config{SlowQuery: -1})
	if code, out := do(t, svc, "GET", "/answer?q=Model+like+Accord&k=3", ""); code != http.StatusOK {
		t.Fatalf("answer status %d: %v", code, out)
	}
	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if v, ok := sampleValue(w.Body.String(), "aimq_engine_queries_total"); !ok || v <= 0 {
		t.Errorf("engine series behind Resilient: present=%v value=%v, want > 0", ok, v)
	}

	// /debug/source must unwrap too.
	dr := httptest.NewRequest("GET", "/debug/source", nil)
	dw := httptest.NewRecorder()
	svc.DebugHandler().ServeHTTP(dw, dr)
	if dw.Code != http.StatusOK {
		t.Errorf("/debug/source behind Resilient: status %d, want 200", dw.Code)
	}
	var src2 map[string]any
	if err := json.Unmarshal(dw.Body.Bytes(), &src2); err != nil {
		t.Fatal(err)
	}
	if q, _ := src2["queries"].(float64); q <= 0 {
		t.Errorf("/debug/source queries = %v, want > 0", src2["queries"])
	}
	if _, ok := src2["columns"]; !ok {
		t.Error("/debug/source lacks the columnar storage descriptors")
	}
}

// sampleValue extracts the value of an unlabeled sample line.
func sampleValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if n, err := fmt.Sscanf(line, name+" %g", &v); err == nil && n == 1 &&
			strings.HasPrefix(line, name+" ") {
			return v, true
		}
	}
	return 0, false
}
