// Package obs is the zero-dependency observability layer for the AIMQ
// answering pipeline: a per-request trace recorder threaded through
// context.Context, a ring buffer of finished traces, and the structured
// records the /answer?explain=true API and the /debug/traces surface
// serialize.
//
// The recorder captures the stages of the paper's Algorithm 1 — imprecise →
// precise tightening (every base-query probe tried), base-set retrieval,
// each GuidedRelax step (which attributes were relaxed, their mined
// importance weights, the boolean query issued, how many tuples came back,
// how many qualified, how many were duplicates), and ranking — plus, for
// each returned answer, the per-attribute VSim/weight decomposition of its
// final Sim(Q,t).
//
// Everything is nil-safe: code under instrumentation calls methods on the
// *Recorder obtained from FromContext without checking for nil, and when no
// recorder was installed every call is a no-op on a nil receiver that
// allocates nothing — the hot path pays zero when tracing is off (proven by
// BenchmarkNilRecorder and the core engine's no-recorder benchmark).
// Callers that must build arguments (attribute-name slices, query strings)
// guard with Active() first.
//
// A Recorder is safe for concurrent use; traces snapshot under a mutex.
package obs

import (
	"context"
	"sync"
	"time"
)

// ctxKey keys the recorder in a context.
type ctxKey struct{}

// WithRecorder returns a context carrying rec. A nil rec returns ctx
// unchanged, so callers can thread an optional recorder unconditionally.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the recorder installed in ctx, or nil when tracing is
// off. The nil result is usable: every Recorder method no-ops on nil.
func FromContext(ctx context.Context) *Recorder {
	rec, _ := ctx.Value(ctxKey{}).(*Recorder)
	return rec
}

// Span is one timed pipeline stage within a trace. Spans form a tree: each
// carries its own ID and the ID of the span that was innermost-open when it
// started (the trace's root span ID for top-level stages). LearnStats
// reuses the type for flat stage timings, where ID/Parent stay empty.
type Span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id,omitempty"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"start_ms"` // offset from trace start
	DurMs   float64 `json:"dur_ms"`
}

// BaseProbe records one candidate base query tried while tightening the
// imprecise query to a precise one with a non-null answer set (Algorithm 1
// step 1 and the footnote-2 generalization chain).
type BaseProbe struct {
	Query  string `json:"query"`
	Tuples int    `json:"tuples"`
	Failed bool   `json:"failed,omitempty"`
	// Engine is the EXPLAIN ANALYZE of the boolean-engine execution behind
	// this probe, when the source is engine-backed and tracing reached it.
	Engine *EngineExec `json:"engine,omitempty"`
}

// DroppedAttr names one attribute relaxed by a step, with its mined
// importance weight W_imp (GuidedRelax drops low-weight attributes first).
type DroppedAttr struct {
	Attr string  `json:"attr"`
	Wimp float64 `json:"wimp"`
}

// RelaxStep records one relaxation query of Algorithm 1 steps 2–8.
type RelaxStep struct {
	Step      int           `json:"step"` // index within the trace, 0-based
	Base      int           `json:"base"` // which base tuple was being expanded
	Dropped   []DroppedAttr `json:"dropped"`
	Query     string        `json:"query"`
	Extracted int           `json:"extracted"` // tuples the source returned
	Qualified int           `json:"qualified"` // new tuples above the Tsim gate
	DupHits   int           `json:"dup_hits"`  // above-gate tuples already in the answer set
	Failed    bool          `json:"failed,omitempty"`
	// Shed marks a step abandoned without reaching the source because the
	// circuit breaker was open (the engine stops expanding, ranks what it
	// has, and the step shows up here so explain output tells the truth).
	Shed      bool    `json:"shed,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Engine is the EXPLAIN ANALYZE of the boolean-engine execution behind
	// this step's source query (see BaseProbe.Engine).
	Engine *EngineExec `json:"engine,omitempty"`
}

// EnginePlanTerm is one compiled predicate in a columnar engine plan: which
// attribute, which operator, and which access path the compiler chose for
// it.
type EnginePlanTerm struct {
	Attr string `json:"attr"`
	Op   string `json:"op"`
	// Access is "posting" (zero-scan bitmap AND), "or-postings" (in-list
	// posting group ORed then ANDed), "scan" (residual predicate evaluated
	// per chunk with zone maps + dense/sparse kernels, or per candidate of
	// an index walk), or "index" (numeric equality whose exact-value run
	// the engine walked instead of visiting chunks).
	Access string `json:"access"`
	// Alternatives counts the in-list values that resolved to postings or
	// scan codes (or-postings and in-scan terms only).
	Alternatives int `json:"alternatives,omitempty"`
}

// EngineExec is the EXPLAIN ANALYZE record of one boolean-engine query,
// filled in by engine.ExecuteExplained: the plan the engine compiled plus
// the per-chunk execution counters — zone-map kills and blanket accepts,
// chunks whose posting AND came up empty, dense kernel rows vs sparse
// residual checks, and whether the chunk worker pool engaged.
type EngineExec struct {
	Empty    bool `json:"empty,omitempty"`     // plan short-circuited (dict miss, null binding, …)
	FullScan bool `json:"full_scan,omitempty"` // empty conjunction: every tuple matches

	Plan []EnginePlanTerm `json:"plan,omitempty"`

	Chunks        int   `json:"chunks,omitempty"`         // chunks in the store
	ChunksVisited int   `json:"chunks_visited,omitempty"` // chunks actually evaluated
	ZoneKilled    int   `json:"zone_killed,omitempty"`    // chunks eliminated by a zone map
	ZoneSkipped   int   `json:"zone_skipped,omitempty"`   // residual checks skipped (zone blanket-accept)
	PostingEmpty  int   `json:"posting_empty,omitempty"`  // chunks whose posting AND was already empty
	DenseRows     int64 `json:"dense_rows,omitempty"`     // rows swept by dense first-residual kernels
	SparseChecks  int64 `json:"sparse_checks,omitempty"`  // candidate positions tested by sparse filters

	Scanned  int64 `json:"tuples_scanned,omitempty"`
	Matched  int   `json:"tuples_matched"`
	Parallel bool  `json:"parallel,omitempty"` // chunk worker pool engaged

	ElapsedUs float64 `json:"elapsed_us"`
}

// SourceEvent records one noteworthy source access observed by the
// resilience layer: a query that was retried, failed after retries, or shed
// by an open circuit breaker. Clean first-attempt successes are not
// recorded (they would dwarf the trace).
type SourceEvent struct {
	Query    string `json:"query"`
	Attempts int    `json:"attempts,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// Breaker is the breaker state after the call ("closed", "half-open",
	// "open").
	Breaker string `json:"breaker,omitempty"`
	// FastFail marks queries shed without touching the source.
	FastFail  bool    `json:"fast_fail,omitempty"`
	Failed    bool    `json:"failed,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Contribution is one attribute's term in the weighted similarity sum
// Sim(Q,t) = Σ W_imp(A_i) × sim_i: Term = Weight × Sim, and the Terms of an
// answer's contributions sum to its reported Sim.
type Contribution struct {
	Attr   string  `json:"attr"`
	Weight float64 `json:"weight"`
	Sim    float64 `json:"sim"`  // VSim for categorical, numeric similarity otherwise
	Term   float64 `json:"term"` // weight × sim
}

// AnswerExplain decomposes one ranked answer: where its score came from and
// which relaxation steps retrieved it.
type AnswerExplain struct {
	Rank     int            `json:"rank"` // 1-based position in the returned top-k
	Sim      float64        `json:"sim"`
	BaseSim  float64        `json:"base_sim"`
	Contribs []Contribution `json:"contributions"`
	// FromBase marks tuples retrieved by the precise base query itself.
	FromBase bool `json:"from_base"`
	// Steps are the indices (into Trace.Steps) of every relaxation step
	// that retrieved this tuple, in issue order — including re-finds that
	// were deduplicated.
	Steps []int `json:"found_by_steps"`
}

// LearnStats profiles the offline learning path: probing, TANE mining, the
// Algorithm 2 ordering, supertuple construction and similarity estimation.
type LearnStats struct {
	Pivot           string `json:"pivot"`
	SeedTuples      int    `json:"seed_tuples"`
	SpanningQueries int    `json:"spanning_queries"`
	ProbeFailures   int    `json:"probe_failures"`
	ProbedTuples    int    `json:"probed_tuples"`
	SampleSize      int    `json:"sample_size"` // tuples actually mined
	AFDs            int    `json:"afds"`
	AKeys           int    `json:"akeys"`
	LatticeLevels   int    `json:"lattice_levels"` // TANE levels visited
	SetsExamined    int    `json:"sets_examined"`  // attribute sets evaluated
	// Mining-core counters: partition products actually multiplied, products
	// avoided by rank-0 (exact-key) pruning and level reuse, and the high-water
	// mark of resident partition bytes across adjacent lattice levels.
	ProductsComputed   int     `json:"products_computed"`
	PartitionCacheHits int     `json:"partition_cache_hits"`
	PeakPartitionBytes int     `json:"peak_partition_bytes"`
	MineWorkers        int     `json:"mine_workers"` // level-shard goroutines (1 = serial)
	Stages             []Span  `json:"stages"`       // probe, sample, mine, order, supertuple, similarity, snapshot
	TotalMs            float64 `json:"total_ms"`
}

// Stage returns the named stage's duration; 0 when the run had no such
// stage.
func (s *LearnStats) Stage(name string) time.Duration {
	for _, sp := range s.Stages {
		if sp.Name == name {
			return time.Duration(sp.DurMs * 1e6)
		}
	}
	return 0
}

// Trace is the finished record of one answered query (or one learning run).
//
// TraceID/SpanID place the trace in a distributed trace: TraceID is shared
// by every process that handled the request (propagated via the W3C
// traceparent header), SpanID is this process's root span, and ParentSpan —
// when non-empty — is the remote span that called us.
type Trace struct {
	ID         string          `json:"id"`
	TraceID    string          `json:"trace_id,omitempty"`
	SpanID     string          `json:"span_id,omitempty"`
	ParentSpan string          `json:"parent_span,omitempty"`
	Query      string          `json:"query,omitempty"`
	Start      time.Time       `json:"start"`
	ElapsedMs  float64         `json:"elapsed_ms"`
	Spans      []Span          `json:"spans,omitempty"`
	BaseProbe  []BaseProbe     `json:"base_probes,omitempty"`
	BaseQuery  string          `json:"base_query,omitempty"`
	BaseCount  int             `json:"base_count,omitempty"`
	Steps      []RelaxStep     `json:"relax_steps,omitempty"`
	Source     []SourceEvent   `json:"source_events,omitempty"`
	Answers    []AnswerExplain `json:"answers,omitempty"`
	Err        string          `json:"error,omitempty"`
}

// Recorder accumulates one trace. The zero value is not used directly:
// construct with NewRecorder, or rely on the nil no-op behavior.
type Recorder struct {
	mu    sync.Mutex
	tr    Trace
	start time.Time // monotonic anchor for span offsets
	// cur is the ID of the innermost open span (the trace root when no
	// stage span is open); new spans parent under it, and it is what a
	// Traceparent() header names. Correct for the sequential answer
	// pipeline; concurrent sibling spans all parent under whichever span
	// was open when they started.
	cur string
	// pending is an engine EXPLAIN waiting to be attached to the next
	// BaseProbe/AddStep (recorded by the source mid-query; the pipeline
	// logs the probe or step right after the query returns, in the same
	// goroutine).
	pending *EngineExec
}

// NewRecorder starts a trace for one request, minting a fresh trace ID.
func NewRecorder(id, query string) *Recorder {
	return NewRecorderWith(id, query, NewTraceContext())
}

// NewRecorderWith starts a trace adopting tc — the position in a
// distributed trace parsed from an incoming traceparent header. The
// recorder mints its own root span under tc.SpanID and keeps tc.TraceID,
// so spans recorded here join the caller's trace. An invalid tc falls back
// to a fresh trace context.
func NewRecorderWith(id, query string, tc TraceContext) *Recorder {
	now := time.Now()
	root := newSpanID()
	parent := ""
	if tc.Valid() {
		parent = tc.SpanID
	} else {
		tc = NewTraceContext()
	}
	return &Recorder{
		tr: Trace{
			ID:         id,
			TraceID:    tc.TraceID,
			SpanID:     root,
			ParentSpan: parent,
			Query:      query,
			Start:      now,
		},
		start: now,
		cur:   root,
	}
}

// TraceID returns the distributed trace ID; empty on nil.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.tr.TraceID // immutable after construction; no lock needed
}

// Traceparent returns the W3C traceparent header value naming the innermost
// open span, for propagation to downstream services. Empty on nil.
func (r *Recorder) Traceparent() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	tc := TraceContext{TraceID: r.tr.TraceID, SpanID: r.cur, Sampled: true}
	r.mu.Unlock()
	return tc.Header()
}

// Active reports whether events are being recorded. It is the guard for
// instrumentation sites that would otherwise allocate building event
// arguments.
func (r *Recorder) Active() bool { return r != nil }

// Since returns the duration since the trace started; zero on nil.
func (r *Recorder) Since() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// ActiveSpan is an in-progress stage; End closes it. A nil ActiveSpan (from
// a nil Recorder) is a no-op.
type ActiveSpan struct {
	rec   *Recorder
	idx   int
	begin time.Time
	id    string
	prev  string // innermost open span before this one; restored on End
}

// StartSpan opens a named stage parented under the innermost open span.
// Spans may nest or interleave; each End stamps its own duration.
func (r *Recorder) StartSpan(name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	begin := time.Now()
	id := newSpanID()
	r.mu.Lock()
	idx := len(r.tr.Spans)
	prev := r.cur
	r.tr.Spans = append(r.tr.Spans, Span{Name: name, ID: id, Parent: prev, StartMs: ms(begin.Sub(r.start))})
	r.cur = id
	r.mu.Unlock()
	return &ActiveSpan{rec: r, idx: idx, begin: begin, id: id, prev: prev}
}

// End closes the span and restores its parent as the innermost open span
// (only if this span still is — out-of-order Ends keep the deepest open).
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.begin)
	s.rec.mu.Lock()
	s.rec.tr.Spans[s.idx].DurMs = ms(dur)
	if s.rec.cur == s.id {
		s.rec.cur = s.prev
	}
	s.rec.mu.Unlock()
}

// ID returns the span's ID; empty on nil.
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// BaseProbe records one base-query attempt, attaching any pending engine
// EXPLAIN recorded during the probe.
func (r *Recorder) BaseProbe(query string, tuples int, failed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	bp := BaseProbe{Query: query, Tuples: tuples, Failed: failed, Engine: r.pending}
	r.pending = nil
	r.tr.BaseProbe = append(r.tr.BaseProbe, bp)
	r.mu.Unlock()
}

// SetBase records the precise base query finally used and its answer count.
func (r *Recorder) SetBase(query string, count int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.BaseQuery = query
	r.tr.BaseCount = count
	r.mu.Unlock()
}

// AddStep appends one relaxation step and returns its index (Step is filled
// in by the recorder). Any pending engine EXPLAIN recorded during the
// step's source query is attached. Returns -1 on nil.
func (r *Recorder) AddStep(step RelaxStep) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	step.Step = len(r.tr.Steps)
	if step.Engine == nil {
		step.Engine = r.pending
	}
	r.pending = nil
	r.tr.Steps = append(r.tr.Steps, step)
	idx := step.Step
	r.mu.Unlock()
	return idx
}

// AddEngineExec records the engine-side EXPLAIN of the source query
// currently in flight. It is held pending and attached to the next
// BaseProbe or AddStep call — the pipeline logs the probe/step immediately
// after the query returns, in the same goroutine, so the pairing is
// deterministic. A later AddEngineExec before either call replaces the
// pending record; an unconsumed record is dropped at Finish.
func (r *Recorder) AddEngineExec(ex EngineExec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pending = &ex
	r.mu.Unlock()
}

// AddSourceEvent appends one resilience-layer source event.
func (r *Recorder) AddSourceEvent(ev SourceEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Source = append(r.tr.Source, ev)
	r.mu.Unlock()
}

// AddAnswer appends one answer decomposition.
func (r *Recorder) AddAnswer(a AnswerExplain) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Answers = append(r.tr.Answers, a)
	r.mu.Unlock()
}

// SetError records a terminal error (e.g. a context deadline that cut the
// relaxation short).
func (r *Recorder) SetError(err error) {
	if r == nil || err == nil {
		return
	}
	r.mu.Lock()
	r.tr.Err = err.Error()
	r.mu.Unlock()
}

// Finish stamps the total elapsed time and returns a copy of the trace.
// Safe to call more than once; later calls re-stamp the total.
func (r *Recorder) Finish() Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr.ElapsedMs = ms(time.Since(r.start))
	return snapshotLocked(&r.tr)
}

// Snapshot returns a copy of the trace as recorded so far.
func (r *Recorder) Snapshot() Trace {
	if r == nil {
		return Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return snapshotLocked(&r.tr)
}

// SpanDurations returns the name → duration map of closed spans, for
// feeding per-stage metrics.
func (r *Recorder) SpanDurations() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.tr.Spans))
	for _, sp := range r.tr.Spans {
		out[sp.Name] += time.Duration(sp.DurMs * float64(time.Millisecond))
	}
	return out
}

// snapshotLocked deep-copies the slices so callers can hold the trace after
// the recorder keeps mutating (it doesn't, today, but the copy is cheap and
// removes the aliasing hazard).
func snapshotLocked(t *Trace) Trace {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	cp.BaseProbe = append([]BaseProbe(nil), t.BaseProbe...)
	cp.Steps = append([]RelaxStep(nil), t.Steps...)
	cp.Source = append([]SourceEvent(nil), t.Source...)
	cp.Answers = append([]AnswerExplain(nil), t.Answers...)
	return cp
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
