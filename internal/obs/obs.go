// Package obs is the observability layer for the AIMQ answering pipeline
// (standard library, plus the relation and query types its step records
// render from): a per-request trace recorder threaded through
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
// Callers that must build arguments (query strings) guard with Active()
// first.
//
// A trace keeps each relaxation step as a fixed-size, pointer-free
// StepRecord; the step's query text and dropped attributes are rendered on
// read from the StepRenderer the pipeline installed (see Trace.RelaxSteps).
//
// A Recorder is safe for concurrent use; traces snapshot under a mutex.
package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
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

// RelaxStep is one relaxation query of Algorithm 1 steps 2–8 as traces
// serialize it: a StepRecord with its query text, dropped attributes and
// engine EXPLAIN rendered (Trace.RelaxSteps).
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

// StepRecord is the retained record of one relaxation step. It is
// fixed-size and holds no pointer, so recording a step is one append to the
// trace's flat step slice, and a retained trace's steps cost the collector
// nothing to scan. What it leaves out, the trace's StepRenderer renders on
// read.
type StepRecord struct {
	Drop      relation.AttrSet // the attributes the step relaxed
	ElapsedNs int64
	Base      int32 // which base tuple was being expanded
	Extracted int32 // tuples the source returned
	Qualified int32 // new tuples above the Tsim gate
	DupHits   int32 // above-gate tuples already in the answer set
	Failed    bool
	Shed      bool // see RelaxStep.Shed
	// engine is 1 + the index of the step's engine EXPLAIN in the trace's
	// engine records; 0 when the source was not engine-backed.
	engine int32
}

// engineRecord is EngineExec as a trace retains it: the counters, and the
// plan as 1 + its index in the trace's plan table (0 for no plan). Like
// StepRecord it is fixed-size and pointer-free; it lives in a slice of its
// own, so steps against a remote source do not pay for it.
//
// Chunk counts are int32: a store's chunk count is far below 2^31 (positions
// are uint32 and a chunk holds many rows). Row counts stay int64.
type engineRecord struct {
	denseRows    int64
	sparseChecks int64
	scanned      int64
	zoneSkipped  int64
	matched      int64
	elapsedUs    float64
	chunks       int32
	visited      int32
	zoneKilled   int32
	postingEmpty int32
	plan         int32
	empty        bool
	fullScan     bool
	parallel     bool
}

func newEngineRecord(ex *EngineExec, plan int32) engineRecord {
	return engineRecord{
		denseRows:    ex.DenseRows,
		sparseChecks: ex.SparseChecks,
		scanned:      ex.Scanned,
		zoneSkipped:  int64(ex.ZoneSkipped),
		matched:      int64(ex.Matched),
		elapsedUs:    ex.ElapsedUs,
		chunks:       int32(ex.Chunks),
		visited:      int32(ex.ChunksVisited),
		zoneKilled:   int32(ex.ZoneKilled),
		postingEmpty: int32(ex.PostingEmpty),
		plan:         plan,
		empty:        ex.Empty,
		fullScan:     ex.FullScan,
		parallel:     ex.Parallel,
	}
}

// exec renders the record with its plan from the trace's rendered plans.
func (e *engineRecord) exec(plans [][]EnginePlanTerm) EngineExec {
	ex := EngineExec{
		Empty:         e.empty,
		FullScan:      e.fullScan,
		Chunks:        int(e.chunks),
		ChunksVisited: int(e.visited),
		ZoneKilled:    int(e.zoneKilled),
		ZoneSkipped:   int(e.zoneSkipped),
		PostingEmpty:  int(e.postingEmpty),
		DenseRows:     e.denseRows,
		SparseChecks:  e.sparseChecks,
		Scanned:       e.scanned,
		Matched:       int(e.matched),
		Parallel:      e.parallel,
		ElapsedUs:     e.elapsedUs,
	}
	if e.plan > 0 {
		ex.Plan = plans[e.plan-1]
	}
	return ex
}

// StepRenderer is what a traced request's relaxation steps were issued
// from: the schema, the expanded base tuples (StepRecord.Base indexes
// them) and the importance weights of the model that answered. The
// answering pipeline installs one per traced request
// (Recorder.SetStepRenderer), and a retained trace renders from it what its
// StepRecords leave out whenever it is read, so the tuples and weights must
// not change afterwards.
type StepRenderer struct {
	Schema *relation.Schema
	Base   []relation.Tuple
	Wimp   []float64
}

// dropped lists drop's attributes with their importance weights.
func (r *StepRenderer) dropped(drop relation.AttrSet) []DroppedAttr {
	out := make([]DroppedAttr, 0, drop.Size())
	for _, a := range drop.Members() {
		w := 0.0
		if a < len(r.Wimp) {
			w = r.Wimp[a]
		}
		out = append(out, DroppedAttr{Attr: r.Schema.Attr(a).Name, Wimp: w})
	}
	return out
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

	// Plan is read-only: the steps of one rendered trace whose plans hold
	// equal terms share one slice (see Recorder.AddEngineExec).
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
	// Steps are the indices (into the trace's relaxation steps) of every
	// step that retrieved this tuple, in issue order — including re-finds
	// that were deduplicated.
	Steps []int `json:"found_by_steps"`
}

// LearnStats profiles the offline learning path: probing, TANE mining, the
// Algorithm 2 ordering, supertuple construction and similarity estimation.
type LearnStats struct {
	Pivot           string `json:"pivot"`
	SeedTuples      int    `json:"seed_tuples"`
	SpanningQueries int    `json:"spanning_queries"`
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
//
// The relaxation steps are retained as StepRecords and rendered on read:
// NumSteps and StepDrops read the records, RelaxSteps and Render render
// them, and MarshalJSON writes them as "relax_steps".
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
	Source     []SourceEvent   `json:"source_events,omitempty"`
	Answers    []AnswerExplain `json:"answers,omitempty"`
	Err        string          `json:"error,omitempty"`

	steps    recordLog[StepRecord]   // in issue order
	engines  recordLog[engineRecord] // EXPLAINs of engine-backed steps
	plans    [][]planTerm            // the engine plans the EXPLAINs reference, each once
	planText []string                // the strings plan terms index, each once
	render   StepRenderer
}

// planTerm is an EnginePlanTerm as a trace keeps it, its strings indices
// into the trace's planText: 16 bytes a term instead of 56. An in-list
// too long for an int32 count could not be held in memory.
type planTerm struct {
	attr, op, access uint32
	alternatives     int32
}

// logChunk is the number of records in one chunk of a recordLog.
const logChunk = 128

// recordLog is an append-only log of fixed-size records kept in chunks of
// logChunk: adding a record never copies the earlier ones, and a finished
// trace wastes at most the unfilled rest of its last chunk.
type recordLog[T any] struct {
	chunks [][]T
	n      int
}

// add appends v and returns its index.
func (l *recordLog[T]) add(v T) int {
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, make([]T, 0, logChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], v)
	l.n++
	return l.n - 1
}

// at returns record i.
func (l *recordLog[T]) at(i int) *T { return &l.chunks[i/logChunk][i%logChunk] }

// snapshot returns the log as it stands: later adds to l write past the
// end of every chunk the snapshot holds, so they do not show in it.
func (l *recordLog[T]) snapshot() recordLog[T] {
	return recordLog[T]{chunks: slices.Clone(l.chunks), n: l.n}
}

// RenderedTrace is a Trace with its relaxation steps rendered, in the form
// traces are written: its fields in order, with the steps between
// base_count and source_events. It encodes natively, so a caller that
// writes a trace once (an explain response) renders it to this form rather
// than paying for Trace.MarshalJSON's second pass.
type RenderedTrace struct {
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

// Render renders the trace's relaxation steps into its written form.
func (t Trace) Render() RenderedTrace {
	return RenderedTrace{
		ID: t.ID, TraceID: t.TraceID, SpanID: t.SpanID, ParentSpan: t.ParentSpan,
		Query: t.Query, Start: t.Start, ElapsedMs: t.ElapsedMs, Spans: t.Spans,
		BaseProbe: t.BaseProbe, BaseQuery: t.BaseQuery, BaseCount: t.BaseCount,
		Steps: t.RelaxSteps(), Source: t.Source, Answers: t.Answers, Err: t.Err,
	}
}

// MarshalJSON writes the trace as Render renders it. HTML characters are
// left for the enclosing encoder to escape or not, so a trace encodes as
// its RenderedTrace does.
func (t Trace) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(t.Render())
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// NumSteps is the number of relaxation steps the trace holds.
func (t Trace) NumSteps() int { return t.steps.n }

// StepDrops is the number of attributes step i relaxed.
func (t Trace) StepDrops(i int) int { return t.steps.at(i).Drop.Size() }

// RelaxSteps renders every relaxation step, in issue order; nil when the
// trace holds none. A step's query is its base tuple's fully bound query
// less the dropped attributes — the query the pipeline issued — and its
// dropped attributes carry the trace's importance weights; both are empty
// when no StepRenderer was installed. Each base tuple's query and each
// drop set's attribute list are built once; steps with equal drop sets
// share one list. Step texts are appended from their base query's
// predicates into one buffer and share one string.
func (t Trace) RelaxSteps() []RelaxStep {
	if t.steps.n == 0 {
		return nil
	}
	out := make([]RelaxStep, t.steps.n)
	plans := make([][]EnginePlanTerm, len(t.plans))
	for i, terms := range t.plans {
		plan := make([]EnginePlanTerm, len(terms))
		for j, pt := range terms {
			plan[j] = EnginePlanTerm{Attr: t.planText[pt.attr], Op: t.planText[pt.op], Access: t.planText[pt.access], Alternatives: int(pt.alternatives)}
		}
		plans[i] = plan
	}
	execs := make([]EngineExec, t.engines.n)
	for i := range execs {
		execs[i] = t.engines.at(i).exec(plans)
	}
	r := &t.render
	bases := make([]*query.Query, len(r.Base))
	dropped := make(map[relation.AttrSet][]DroppedAttr)
	var text []byte // every step's query text; step i's ends at ends[i]
	var ends []int
	if r.Schema != nil {
		ends = make([]int, len(out))
	}
	for i := range out {
		s := t.steps.at(i)
		rs := RelaxStep{
			Step:      i,
			Base:      int(s.Base),
			Extracted: int(s.Extracted),
			Qualified: int(s.Qualified),
			DupHits:   int(s.DupHits),
			Failed:    s.Failed,
			Shed:      s.Shed,
			ElapsedMs: float64(s.ElapsedNs) / 1e6,
		}
		if r.Schema != nil {
			bq := bases[s.Base]
			if bq == nil {
				bq = query.FromTuple(r.Schema, r.Base[s.Base])
				bases[s.Base] = bq
			}
			text = bq.AppendString(text, s.Drop)
			ends[i] = len(text)
			d, ok := dropped[s.Drop]
			if !ok {
				d = r.dropped(s.Drop)
				dropped[s.Drop] = d
			}
			rs.Dropped = d
		}
		if s.engine > 0 {
			rs.Engine = &execs[s.engine-1]
		}
		out[i] = rs
	}
	if ends != nil {
		all, start := string(text), 0
		for i, end := range ends {
			out[i].Query, start = all[start:end], end
		}
	}
	return out
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
	// goroutine); hasPending says whether it is set.
	pending    EngineExec
	hasPending bool
	// planIdx interns the trace's engine plans: a hash of a plan's terms
	// to 1 + its index in tr.plans (see AddEngineExec).
	planIdx map[uint64]int32
	// spare is a plan buffer no record references, lent out by PlanBuffer:
	// the largest a step's plan was compiled into.
	spare []EnginePlanTerm
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
func (r *Recorder) BaseProbe(text string, tuples int, failed bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	bp := BaseProbe{Query: text, Tuples: tuples, Failed: failed}
	if r.hasPending {
		ex := r.pending
		bp.Engine = &ex
		r.hasPending = false
	}
	r.tr.BaseProbe = append(r.tr.BaseProbe, bp)
	r.mu.Unlock()
}

// SetBase records the precise base query finally used and its answer count.
func (r *Recorder) SetBase(text string, count int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.BaseQuery = text
	r.tr.BaseCount = count
	r.mu.Unlock()
}

// SetStepRenderer installs what the trace's relaxation steps were issued
// from (see StepRenderer).
func (r *Recorder) SetStepRenderer(sr StepRenderer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.render = sr
	r.mu.Unlock()
}

// AddStep appends one relaxation step and returns its index. Any pending
// engine EXPLAIN recorded during the step's source query is attached.
// Returns -1 on nil.
func (r *Recorder) AddStep(step StepRecord) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	if r.hasPending {
		plan := r.internPlan(r.pending.Plan)
		if cap(r.pending.Plan) > cap(r.spare) {
			r.spare = r.pending.Plan[:0]
		}
		step.engine = int32(r.tr.engines.add(newEngineRecord(&r.pending, plan)) + 1)
		r.hasPending = false
	}
	idx := r.tr.steps.add(step)
	r.mu.Unlock()
	return idx
}

// PlanBuffer lends the recorder's spare plan buffer, emptied, for the
// engine to compile the next EXPLAIN plan into; nil when none is spare or
// on a nil recorder. Return it in the EngineExec given to AddEngineExec.
func (r *Recorder) PlanBuffer() []EnginePlanTerm {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	buf := r.spare[:0]
	r.spare = nil
	r.mu.Unlock()
	return buf
}

// AddEngineExec records the engine-side EXPLAIN of the source query
// currently in flight. A copy is held pending and attached to the next
// BaseProbe or AddStep call — the pipeline logs the probe/step immediately
// after the query returns, in the same goroutine, so the pairing is
// deterministic. A later AddEngineExec before either call replaces the
// pending record; an unconsumed record is dropped at Finish. The caller
// gives ex.Plan's array up.
//
// A step's plan is interned: relaxation repeats the same drop sets for
// every base tuple, so most steps compile a plan an earlier step recorded,
// and such a step references that plan. A new plan is copied into the
// trace's plan table, so the array the engine compiled a step's plan into
// becomes the spare buffer PlanBuffer lends.
func (r *Recorder) AddEngineExec(ex *EngineExec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pending = *ex
	r.hasPending = true
	r.mu.Unlock()
}

// internPlan returns 1 + the index of plan's terms in the trace's plan
// table, adding them when no earlier plan has equal terms (0 for an empty
// plan). A plan whose hash an unequal plan already holds is added as an
// entry of its own. Caller holds r.mu.
func (r *Recorder) internPlan(plan []EnginePlanTerm) int32 {
	if len(plan) == 0 {
		return 0
	}
	h := planHash(plan)
	if i, ok := r.planIdx[h]; ok {
		if r.samePlan(r.tr.plans[i-1], plan) {
			return i
		}
	} else {
		if r.planIdx == nil {
			r.planIdx = make(map[uint64]int32)
		}
		r.planIdx[h] = int32(len(r.tr.plans) + 1)
	}
	terms := make([]planTerm, len(plan))
	for j, p := range plan {
		terms[j] = planTerm{attr: r.planString(p.Attr), op: r.planString(p.Op), access: r.planString(p.Access), alternatives: int32(p.Alternatives)}
	}
	r.tr.plans = append(r.tr.plans, terms)
	return int32(len(r.tr.plans))
}

// samePlan reports whether the kept terms equal plan's. Caller holds r.mu.
func (r *Recorder) samePlan(terms []planTerm, plan []EnginePlanTerm) bool {
	if len(terms) != len(plan) {
		return false
	}
	text := r.tr.planText
	for j, pt := range terms {
		p := &plan[j]
		if text[pt.attr] != p.Attr || text[pt.op] != p.Op || text[pt.access] != p.Access || int(pt.alternatives) != p.Alternatives {
			return false
		}
	}
	return true
}

// planString returns s's index in the trace's plan text, adding it when
// new. The table holds a schema's attribute names, operators and access
// paths, a few dozen strings, so a scan finds them. Caller holds r.mu.
func (r *Recorder) planString(s string) uint32 {
	if i := slices.Index(r.tr.planText, s); i >= 0 {
		return uint32(i)
	}
	r.tr.planText = append(r.tr.planText, s)
	return uint32(len(r.tr.planText) - 1)
}

// planHash is 64-bit FNV-1a over a plan's terms.
func planHash(plan []EnginePlanTerm) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range plan {
		h = fnvString(h, t.Attr)
		h = fnvString(h, t.Op)
		h = fnvString(h, t.Access)
		h = (h ^ uint64(t.Alternatives)) * 1099511628211
	}
	return h
}

// fnvString folds s and a terminating 0xff byte into the FNV-1a hash h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return (h ^ 0xff) * 1099511628211
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

// snapshotLocked copies the trace so callers can hold it while the
// recorder keeps mutating: the exported slices are copied (an open span's
// duration is written in place), and the step, engine and plan records —
// only ever appended to — are shared, capped at their current length.
func snapshotLocked(t *Trace) Trace {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	cp.BaseProbe = append([]BaseProbe(nil), t.BaseProbe...)
	cp.Source = append([]SourceEvent(nil), t.Source...)
	cp.Answers = append([]AnswerExplain(nil), t.Answers...)
	cp.steps = t.steps.snapshot()
	cp.engines = t.engines.snapshot()
	cp.plans = slices.Clip(t.plans)
	cp.planText = slices.Clip(t.planText)
	return cp
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
