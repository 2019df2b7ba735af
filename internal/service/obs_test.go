package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"aimq/internal/webdb"
)

var update = flag.Bool("update", false, "rewrite golden files")

// obsService builds a service over a deterministic relation with tracing on
// and an aggressive slow-query threshold off (tests assert it separately).
func obsService(t testing.TB) *Service {
	rel := testDB(600, 3)
	return newService(t, rel, nil, Config{SlowQuery: -1})
}

func TestExplainResponse(t *testing.T) {
	svc := obsService(t)
	code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+10000&k=5&explain=true", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	explain, ok := out["explain"].(map[string]any)
	if !ok {
		t.Fatalf("no explain object in response: %v", out)
	}
	answers := out["answers"].([]any)
	explained := explain["answers"].([]any)
	if len(explained) != len(answers) {
		t.Fatalf("%d explained answers for %d answers", len(explained), len(answers))
	}
	// Per-answer contributions sum to the reported sim of the same row.
	for i, raw := range explained {
		ae := raw.(map[string]any)
		row := answers[i].(map[string]any)
		sum := 0.0
		for _, c := range ae["contributions"].([]any) {
			sum += c.(map[string]any)["term"].(float64)
		}
		if sim := row["sim"].(float64); sum != sim {
			t.Errorf("answer %d: contribution sum %v != sim %v", i, sum, sim)
		}
		if ae["sim"].(float64) != row["sim"].(float64) {
			t.Errorf("answer %d: explain sim %v != answer sim %v", i, ae["sim"], row["sim"])
		}
	}
	// The trace carries the pipeline stages and relaxation provenance.
	if len(explain["spans"].([]any)) < 3 {
		t.Errorf("explain lacks stage spans: %v", explain["spans"])
	}
	if _, ok := explain["relax_steps"].([]any); !ok {
		t.Errorf("explain lacks relaxation steps")
	}

	// Explained answers bypass the cache: a repeat still computes, and a
	// subsequent plain request is a miss (nothing with a trace was cached).
	_, out2 := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+10000&k=5&explain=true", "")
	if out2["cached"] != false {
		t.Errorf("explain answer served from cache")
	}
	_, out3 := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+10000&k=5", "")
	if out3["cached"] != false {
		t.Errorf("plain answer after explain claims cached — explained payload leaked into the cache")
	}
	if _, hasExplain := out3["explain"]; hasExplain {
		t.Errorf("plain answer carries an explain object")
	}
}

func TestExplainViaPOST(t *testing.T) {
	svc := obsService(t)
	code, out := do(t, svc, "POST", "/answer",
		`{"query":"Model like Camry","k":3,"explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if _, ok := out["explain"].(map[string]any); !ok {
		t.Fatalf("POST explain=true returned no explain object: %v", out)
	}
}

func TestRequestIDEchoed(t *testing.T) {
	svc := obsService(t)
	r := httptest.NewRequest("GET", "/answer?q=Model+like+Camry", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	id := w.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatalf("no X-Request-ID on response")
	}

	// A forwarded ID is kept, not replaced.
	r = httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("X-Request-ID", "upstream-42")
	w = httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-ID"); got != "upstream-42" {
		t.Errorf("forwarded request ID replaced: %q", got)
	}
}

// TestRequestIDBoundedThroughRouter: a 64 KiB X-Request-ID is replaced by a
// minted ID, in the response header and as the ID of the trace the ring
// keeps, on the computed path and on the cached fast path; a normal ID is
// echoed and kept.
func TestRequestIDBoundedThroughRouter(t *testing.T) {
	svc := obsService(t)
	huge := strings.Repeat("h", 64<<10)
	get := func(target, id string) string {
		t.Helper()
		r := httptest.NewRequest("GET", target, nil)
		r.Header.Set("X-Request-ID", id)
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, w.Code, w.Body.String())
		}
		return w.Header().Get("X-Request-ID")
	}
	latestTraceID := func() string {
		t.Helper()
		_, out := do(t, svc, "GET", "/debug/traces", "")
		return out["recent"].([]any)[0].(map[string]any)["id"].(string)
	}

	const target = "/answer?q=Model+like+Camry&k=3"
	minted := get(target, huge)
	if minted == huge || minted == "" || len(minted) > 128 {
		t.Fatalf("computed path echoed a %d-byte ID, want a minted one", len(minted))
	}
	if id := latestTraceID(); id != minted {
		t.Errorf("ring keeps trace ID of %d bytes, want the minted %q", len(id), minted)
	}
	// The same URL again is served by the fast path.
	if id := get(target, huge); id == huge || id == "" || len(id) > 128 {
		t.Errorf("fast path echoed a %d-byte ID, want a minted one", len(id))
	}
	if id := get(target, "upstream-7"); id != "upstream-7" {
		t.Errorf("fast path replaced a normal ID: %q", id)
	}

	if id := get("/answer?q=Model+like+Camry&k=4", "upstream-8"); id != "upstream-8" {
		t.Errorf("computed path replaced a normal ID: %q", id)
	}
	if id := latestTraceID(); id != "upstream-8" {
		t.Errorf("ring keeps trace ID %q, want the caller's upstream-8", id)
	}
}

func TestTraceRingEndpoint(t *testing.T) {
	svc := obsService(t)
	for i := 0; i < 3; i++ {
		do(t, svc, "GET", fmt.Sprintf("/answer?q=Model+like+Camry&k=%d", i+2), "")
	}
	code, out := do(t, svc, "GET", "/debug/traces", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	recent := out["recent"].([]any)
	if len(recent) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(recent))
	}
	// Newest first; every trace has an ID (the request ID) and a query.
	for _, raw := range recent {
		tr := raw.(map[string]any)
		if tr["id"] == "" || tr["query"] == "" {
			t.Errorf("trace lacks id/query: %v", tr)
		}
	}
	if len(out["slowest"].([]any)) != 3 {
		t.Errorf("slowest list has %d entries, want 3", len(out["slowest"].([]any)))
	}

	// Cache hits do not produce traces (nothing was computed).
	do(t, svc, "GET", "/answer?q=Model+like+Camry&k=2", "")
	_, out = do(t, svc, "GET", "/debug/traces", "")
	if got := len(out["recent"].([]any)); got != 3 {
		t.Errorf("cache hit added a trace: ring has %d", got)
	}
}

func TestTracingDisabled(t *testing.T) {
	rel := testDB(400, 5)
	svc := newService(t, rel, nil, Config{TraceRing: -1, SlowQuery: -1})
	do(t, svc, "GET", "/answer?q=Model+like+Camry", "")
	code, _ := do(t, svc, "GET", "/debug/traces", "")
	if code != http.StatusNotFound {
		t.Errorf("disabled ring served traces: status %d", code)
	}
	// explain=true still works — the trace is the response, not the ring.
	code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry&explain=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if _, ok := out["explain"].(map[string]any); !ok {
		t.Errorf("explain missing with tracing disabled")
	}
}

func TestDebugHandlerSurfaces(t *testing.T) {
	svc := obsService(t)
	do(t, svc, "GET", "/answer?q=Model+like+Camry", "")
	h := svc.DebugHandler()
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	for _, path := range []string{"/debug/", "/debug/traces", "/debug/source", "/debug/vars", "/debug/pprof/"} {
		if w := get(path); w.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, w.Code)
		}
	}
	// No learning profile attached: 404 with an explanation.
	if w := get("/debug/learn"); w.Code != http.StatusNotFound {
		t.Errorf("GET /debug/learn without stats: status %d", w.Code)
	}
	// /debug/source reports the boolean engine's counters.
	var sourceInfo map[string]any
	if err := json.Unmarshal(get("/debug/source").Body.Bytes(), &sourceInfo); err != nil {
		t.Fatalf("bad /debug/source JSON: %v", err)
	}
	if sourceInfo["queries"].(float64) == 0 {
		t.Errorf("/debug/source reports zero queries after an answer: %v", sourceInfo)
	}
}

func TestDebugLearnProfile(t *testing.T) {
	rel := testDB(800, 9)
	src := webdb.NewLocal(rel)
	m, err := BuildModel(src, LearnConfig{Pivot: "Make"})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	stats := m.Stats
	if stats == nil {
		t.Fatal("BuildModel returned nil stats")
	}
	if stats.Pivot != "Make" || stats.SampleSize == 0 || stats.AFDs == 0 {
		t.Errorf("learn stats incomplete: %+v", stats)
	}
	if stats.LatticeLevels == 0 || stats.SetsExamined == 0 {
		t.Errorf("learn stats lack the TANE lattice profile: %+v", stats)
	}
	wantStages := []string{"probe", "sample", "mine", "order", "supertuple", "similarity", "snapshot"}
	if len(stats.Stages) != len(wantStages) {
		t.Fatalf("stages = %v", stats.Stages)
	}
	for i, want := range wantStages {
		if stats.Stages[i].Name != want {
			t.Errorf("stage %d = %q, want %q", i, stats.Stages[i].Name, want)
		}
	}

	if m.Est == nil {
		t.Fatal("BuildModel returned nil estimator")
	}
	svc := obsService(t)
	svc.SetLearnStats(stats)
	h := svc.DebugHandler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/learn", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/learn: status %d", w.Code)
	}
	var got map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["pivot"] != "Make" {
		t.Errorf("served learn profile = %v", got)
	}
}

// TestMetricsExposition checks the scrape output's format invariants: every
// series has HELP and TYPE, histogram buckets are cumulative and monotone,
// and each histogram's _count equals its +Inf bucket.
func TestMetricsExposition(t *testing.T) {
	svc := obsService(t)
	// Drive traffic through every path: computed, cached, explained, bad.
	do(t, svc, "GET", "/answer?q=Model+like+Camry&k=3", "")
	do(t, svc, "GET", "/answer?q=Model+like+Camry&k=3", "")
	do(t, svc, "GET", "/answer?q=Price+like+12000&k=2&explain=true", "")
	do(t, svc, "GET", "/answer?q=", "")

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}

	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string][]string{} // metric base name -> sample lines
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		series[base] = append(series[base], line)
	}

	if len(series) == 0 {
		t.Fatal("no series in /metrics output")
	}
	for base := range series {
		if !helped[base] {
			t.Errorf("series %s has no HELP", base)
		}
		if typed[base] == "" {
			t.Errorf("series %s has no TYPE", base)
		}
	}
	for _, want := range []string{
		"aimq_service_requests_total", "aimq_service_cache_entries",
		"aimq_service_slow_queries_total", "aimq_service_answer_latency_seconds",
		"aimq_service_stage_seconds",
		"aimq_service_build_info", "aimq_service_goroutines",
		"aimq_service_heap_alloc_bytes", "aimq_service_heap_sys_bytes",
		"aimq_service_gc_cycles_total", "aimq_service_gc_pause_seconds_total",
		"aimq_service_relax_depth", "aimq_service_answers_per_query",
		"aimq_service_answer_sim",
	} {
		if len(series[want]) == 0 {
			t.Errorf("missing series %s", want)
		}
	}

	// Histogram invariants, per label set.
	value := func(line string) float64 {
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	for base, typ := range typed {
		if typ != "histogram" {
			continue
		}
		// Group bucket lines by their non-le labels (the stage label).
		buckets := map[string][]float64{}
		infs := map[string]float64{}
		counts := map[string]float64{}
		for _, line := range series[base] {
			name := line[:strings.IndexAny(line, "{ ")]
			key := stageOf(line)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if strings.Contains(line, `le="+Inf"`) {
					infs[key] = value(line)
				}
				buckets[key] = append(buckets[key], value(line))
			case strings.HasSuffix(name, "_count"):
				counts[key] = value(line)
			}
		}
		for key, bs := range buckets {
			for i := 1; i < len(bs); i++ {
				if bs[i] < bs[i-1] {
					t.Errorf("%s{%s}: bucket counts not monotone: %v", base, key, bs)
					break
				}
			}
			if counts[key] != infs[key] {
				t.Errorf("%s{%s}: _count %v != +Inf bucket %v", base, key, counts[key], infs[key])
			}
		}
	}

	// The stage histograms cover the Algorithm 1 phases plus the total.
	stages := map[string]bool{}
	for _, line := range series["aimq_service_stage_seconds"] {
		if s := stageOf(line); s != "" {
			stages[s] = true
		}
	}
	for _, want := range []string{"base_set", "relax", "rank", "total"} {
		if !stages[want] {
			t.Errorf("stage histogram missing stage %q (have %v)", want, stages)
		}
	}
}

func stageOf(line string) string {
	const marker = `stage="`
	i := strings.Index(line, marker)
	if i < 0 {
		return ""
	}
	rest := line[i+len(marker):]
	return rest[:strings.IndexByte(rest, '"')]
}

func TestSlowQueryCounter(t *testing.T) {
	rel := testDB(400, 11)
	// Threshold of 1ns: every computed answer counts as slow.
	svc := newService(t, rel, nil, Config{SlowQuery: time.Nanosecond})
	do(t, svc, "GET", "/answer?q=Model+like+Camry", "")
	if got := svc.met.slowQueries.Load(); got != 1 {
		t.Errorf("slow queries = %d, want 1", got)
	}
	// A cache hit computes nothing, so it is never slow.
	do(t, svc, "GET", "/answer?q=Model+like+Camry", "")
	if got := svc.met.slowQueries.Load(); got != 1 {
		t.Errorf("cache hit counted as slow: %d", got)
	}

	// Under 1-in-1000 head sampling at most one of four computed answers is
	// traced; every one of them is still slow, counted and logged, and
	// every one feeds the answers-per-query and Sim histograms.
	var logBuf bytes.Buffer
	sampled := newService(t, rel, nil, Config{
		SlowQuery: time.Nanosecond, TraceSample: 1000,
		Logger: slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	served := 0
	for _, q := range []string{"Model+like+Camry", "Model+like+Civic", "Make+like+Ford", "Price+like+9000"} {
		code, body := do(t, sampled, "GET", "/answer?q="+q, "")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", q, code, body)
		}
		served += len(body["answers"].([]any))
	}
	if got := sampled.met.slowQueries.Load(); got != 4 {
		t.Errorf("slow queries under sampling = %d, want 4", got)
	}
	if got := strings.Count(logBuf.String(), `msg="slow query"`); got != 4 {
		t.Errorf("%d slow-query log lines under sampling, want 4:\n%s", got, logBuf.String())
	}
	if _, _, got := sampled.met.answersPer.snapshot(); got != 4 {
		t.Errorf("answers_per_query count under sampling = %d, want 4", got)
	}
	if _, _, got := sampled.met.answerSim.snapshot(); got != int64(served) {
		t.Errorf("answer_sim count under sampling = %d, want %d answers served", got, served)
	}
}

// TestExplainGolden locks the explain=true response shape: the JSON —
// volatile fields (timings, IDs, timestamps) scrubbed — must match the
// checked-in golden file. Regenerate with: go test ./internal/service -run
// TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	rel := testDB(200, 42)
	svc := newService(t, rel, nil, Config{SlowQuery: -1})
	r := httptest.NewRequest("GET", "/answer?q=Model+like+Camry,+Price+like+9000&k=3&tsim=0.4&explain=true", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	scrubVolatile(doc)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "explain.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("explain response drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
	}
}

// scrubVolatile nulls every timing, ID and timestamp field in place so the
// golden comparison sees only the deterministic structure.
func scrubVolatile(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "elapsed_ms", "start_ms", "dur_ms", "start", "id",
				"trace_id", "span_id", "parent_span", "parent", "elapsed_us":
				x[k] = nil
			default:
				scrubVolatile(val)
			}
		}
	case []any:
		for _, val := range x {
			scrubVolatile(val)
		}
	}
}
