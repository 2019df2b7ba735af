package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("fresh trace context invalid: %+v", tc)
	}
	h := tc.Header()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") || len(h) != 55 {
		t.Fatalf("malformed header %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("round-trip parse failed for %q", h)
	}
	if got != tc {
		t.Fatalf("round trip changed context: sent %+v got %+v", tc, got)
	}
	// Unsampled flag round-trips too.
	tc.Sampled = false
	got, ok = ParseTraceparent(tc.Header())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: ok=%v got %+v", ok, got)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // no flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // ver 00 with suffix
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // future version, flags run on
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per the spec, an unknown future version is parsed for its 00-shaped
	// prefix; trailing version-specific data is ignored.
	h := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra-future-fields"
	tc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("future version rejected: %q", h)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.SpanID != "00f067aa0ba902b7" || !tc.Sampled {
		t.Fatalf("wrong fields: %+v", tc)
	}
	// Flags followed by "-" and a field, or by the end, are well formed.
	for _, h := range []string{
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-suffix",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
	} {
		if _, ok := ParseTraceparent(h); !ok {
			t.Errorf("future version rejected: %q", h)
		}
	}
}

// TestParseTraceparentCopiesIDs: the IDs of an adopted context do not
// point into the header, so a retained trace never pins a long
// future-version value.
func TestParseTraceparentCopiesIDs(t *testing.T) {
	h := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-" + strings.Repeat("x", 64<<10)
	tc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("future version rejected")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(h)))
	hi := lo + uintptr(len(h))
	for _, id := range []string{tc.TraceID, tc.SpanID} {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(id))); p >= lo && p < hi {
			t.Errorf("ID %q points into the %d-byte header", id, len(h))
		}
	}
}

func TestRecorderAdoptsCallerTrace(t *testing.T) {
	caller := TraceContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
	}
	rec := NewRecorderWith("req-1", "Q", caller)
	tr := rec.Finish()
	if tr.TraceID != caller.TraceID {
		t.Errorf("trace ID not adopted: got %q want %q", tr.TraceID, caller.TraceID)
	}
	if tr.ParentSpan != caller.SpanID {
		t.Errorf("parent span not adopted: got %q want %q", tr.ParentSpan, caller.SpanID)
	}
	if !validHex(tr.SpanID, 16) || tr.SpanID == caller.SpanID {
		t.Errorf("root span must be freshly minted, got %q", tr.SpanID)
	}
	// Outbound propagation stays inside the caller's trace.
	out, ok := ParseTraceparent(rec.Traceparent())
	if !ok || out.TraceID != caller.TraceID {
		t.Errorf("outbound traceparent left the trace: %+v ok=%v", out, ok)
	}
}

func TestRecorderFreshTraceOnInvalidContext(t *testing.T) {
	rec := NewRecorderWith("req-2", "Q", TraceContext{TraceID: "nope"})
	tr := rec.Finish()
	if !validHex(tr.TraceID, 32) || !validHex(tr.SpanID, 16) {
		t.Fatalf("fresh IDs invalid: trace=%q span=%q", tr.TraceID, tr.SpanID)
	}
	if tr.ParentSpan != "" {
		t.Fatalf("fresh trace must have no remote parent, got %q", tr.ParentSpan)
	}
}

func TestSpanHierarchy(t *testing.T) {
	rec := NewRecorder("req-3", "Q")
	root := rec.Finish().SpanID

	outer := rec.StartSpan("relax")
	inner := rec.StartSpan("source_http")
	// The innermost open span is what an outbound hop names as parent.
	tc, ok := ParseTraceparent(rec.Traceparent())
	if !ok || tc.SpanID != inner.ID() {
		t.Errorf("traceparent names %q, want innermost %q", tc.SpanID, inner.ID())
	}
	inner.End()
	sibling := rec.StartSpan("rank")
	sibling.End()
	outer.End()

	tr := rec.Finish()
	byName := map[string]Span{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	if got := byName["relax"].Parent; got != root {
		t.Errorf("relax parent = %q, want root %q", got, root)
	}
	if got := byName["source_http"].Parent; got != outer.ID() {
		t.Errorf("source_http parent = %q, want relax %q", got, outer.ID())
	}
	if got := byName["rank"].Parent; got != outer.ID() {
		t.Errorf("rank parent = %q, want relax %q (inner ended)", got, outer.ID())
	}
	// After all spans end, propagation names the root again.
	if tc, _ := ParseTraceparent(rec.Traceparent()); tc.SpanID != root {
		t.Errorf("after ends traceparent names %q, want root %q", tc.SpanID, root)
	}
}

func TestPendingEngineExecAttachment(t *testing.T) {
	rec := NewRecorder("req-4", "Q")
	rec.AddEngineExec(EngineExec{Matched: 7})
	rec.BaseProbe("Q1", 7, false)
	rec.AddEngineExec(EngineExec{Matched: 3})
	rec.AddStep(RelaxStep{Query: "Q2", Extracted: 3})
	// A step that already carries an EXPLAIN keeps it.
	rec.AddEngineExec(EngineExec{Matched: 99})
	rec.AddStep(RelaxStep{Query: "Q3", Engine: &EngineExec{Matched: 5}})
	// Unconsumed pending EXPLAIN must not leak into the finished trace.
	rec.AddEngineExec(EngineExec{Matched: 42})
	tr := rec.Finish()

	if tr.BaseProbe[0].Engine == nil || tr.BaseProbe[0].Engine.Matched != 7 {
		t.Errorf("base probe engine = %+v, want Matched 7", tr.BaseProbe[0].Engine)
	}
	if tr.Steps[0].Engine == nil || tr.Steps[0].Engine.Matched != 3 {
		t.Errorf("step 0 engine = %+v, want Matched 3", tr.Steps[0].Engine)
	}
	if tr.Steps[1].Engine == nil || tr.Steps[1].Engine.Matched != 5 {
		t.Errorf("step 1 engine = %+v, want its own Matched 5", tr.Steps[1].Engine)
	}
}

// TestEnginePlansInterned: records of one trace whose plans hold equal
// terms share one slice; a plan differing only in access, or one whose hash
// an unequal plan already holds, keeps its own terms.
func TestEnginePlansInterned(t *testing.T) {
	plan := func(access string) []EnginePlanTerm {
		return []EnginePlanTerm{{Attr: "Make", Op: "=", Access: "posting"}, {Attr: "Price", Op: "=", Access: access}}
	}
	rec := NewRecorder("req-5", "Q")
	for _, access := range []string{"index", "scan", "index"} {
		rec.AddEngineExec(EngineExec{Plan: plan(access)})
		rec.AddStep(RelaxStep{})
	}
	collide := NewRecorder("req-6", "Q")
	collide.plans = map[uint64][]EnginePlanTerm{planHash(plan("index")): plan("scan")}
	collide.AddEngineExec(EngineExec{Plan: plan("index")})
	collide.AddStep(RelaxStep{})

	steps := rec.Finish().Steps
	if &steps[0].Engine.Plan[0] != &steps[2].Engine.Plan[0] {
		t.Errorf("equal plans hold two arrays")
	}
	if &steps[0].Engine.Plan[0] == &steps[1].Engine.Plan[0] {
		t.Errorf("plans differing in access share one array")
	}
	for i, want := range []string{"index", "scan", "index"} {
		if got := steps[i].Engine.Plan[1].Access; got != want {
			t.Errorf("step %d: Price access %q, want %q", i, got, want)
		}
	}
	if got := collide.Finish().Steps[0].Engine.Plan[1].Access; got != "index" {
		t.Errorf("plan behind a hash collision reads access %q, want its own index", got)
	}
}

// exportTraces is a fixed two-trace fixture: one distributed request with a
// remote parent and nested spans, one local error trace with no spans.
func exportTraces() []Trace {
	start := time.Unix(1700000000, 0).UTC()
	return []Trace{
		{
			ID:         "req-aaaa-000001",
			TraceID:    "4bf92f3577b34da6a3ce929d0e0e4736",
			SpanID:     "00f067aa0ba902b7",
			ParentSpan: "b7ad6b7169203331",
			Query:      "Q(Model like Camry)",
			Start:      start,
			ElapsedMs:  12.5,
			Spans: []Span{
				{Name: "base_set", ID: "1111111111111111", Parent: "00f067aa0ba902b7", StartMs: 0.5, DurMs: 2},
				{Name: "relax", ID: "2222222222222222", Parent: "00f067aa0ba902b7", StartMs: 2.5, DurMs: 8},
				{Name: "source_http", ID: "3333333333333333", Parent: "2222222222222222", StartMs: 3, DurMs: 4},
				{Name: "rank", ID: "4444444444444444", Parent: "00f067aa0ba902b7", StartMs: 10.5, DurMs: 1.5},
			},
			BaseQuery: "Q(Model = Camry)",
			BaseCount: 4,
			Steps:     []RelaxStep{{Query: "Q(Model = Camry)"}, {Query: "Q()"}},
			Answers:   []AnswerExplain{{Rank: 1, Sim: 0.9}},
		},
		{
			ID:        "req-bbbb-000002",
			TraceID:   "deadbeefdeadbeefdeadbeefdeadbeef",
			SpanID:    "cafebabecafebabe",
			Start:     start.Add(20 * time.Millisecond),
			ElapsedMs: 3.25,
			Err:       "context deadline exceeded",
		},
	}
}

// TestWriteChromeTraceGolden pins the Perfetto export byte-for-byte; the
// fixture has fixed timestamps so the output is deterministic. Run with
// -update to regenerate after intentional format changes.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportTraces()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
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
		t.Errorf("Chrome trace export drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
	}
}

// TestWriteChromeTraceWellFormed checks the structural contract the trace
// viewers rely on, independent of the golden bytes: a traceEvents array of
// "M"/"X" events with microsecond timestamps and per-trace thread IDs.
func TestWriteChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportTraces()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata + 2 roots + 4 spans.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
	tids := map[int]bool{}
	var roots int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("bad metadata event %+v", ev)
			}
		case "X":
			if ev.Ts == nil || ev.Pid != 1 || ev.Tid < 1 {
				t.Errorf("bad complete event %+v", ev)
			}
			if ev.Name == "request" {
				roots++
				if ev.Args["request_id"] == "" || ev.Args["trace_id"] == "" {
					t.Errorf("root event missing IDs: %+v", ev.Args)
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		tids[ev.Tid] = true
	}
	if roots != 2 {
		t.Errorf("got %d root slices, want 2", roots)
	}
	if len(tids) != 2 {
		t.Errorf("got %d thread tracks, want 2", len(tids))
	}
	// The error trace surfaces its error in the root args.
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Errorf("empty export errored: %v", err)
	}
}
