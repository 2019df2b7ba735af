package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/core"
	"aimq/internal/obs"
	"aimq/internal/version"
)

// serviceMetrics holds the service's own operational counters, the answer
// latency distribution and the answer-quality distributions. handleMetrics
// reads them, together with every attached telemetry source, at scrape time.
// Implemented on stdlib atomics so the repo stays dependency-free; any
// Prometheus scraper parses the output.
type serviceMetrics struct {
	requestsOK     atomic.Int64 // answered 2xx
	requestsErr    atomic.Int64 // answered 4xx/5xx
	requestsCancel atomic.Int64 // cut by a context deadline / disconnect
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	flightShared   atomic.Int64 // requests that piggybacked on another's run
	relaxQueries   atomic.Int64 // source queries issued by the engine
	tuplesRead     atomic.Int64 // tuples extracted from the source
	slowQueries    atomic.Int64 // answers slower than the slow-query threshold
	staleServes    atomic.Int64 // responses served from expired/error-bypassed cache
	modelSwaps     atomic.Int64 // Promote calls (model hot-swaps, rollbacks included)
	inflight       atomic.Int64

	latency histogram
	stages  stageHistograms

	// Quality distributions: how many answers each computed query got and
	// where their Sim(Q,t) scores land, fed from every run's result, and how
	// deep relaxation had to go per answer, fed from finished traces. These
	// turn the paper's §6 quality metrics into continuously scraped series.
	relaxDepth histogram
	answersPer histogram
	answerSim  histogram
}

// Quality-histogram bucket bounds. Depth counts dropped attributes per
// relaxation step; answers-per-query tops out at the MaxK default; Sim is
// bounded in (0,1].
var (
	depthBounds   = []float64{0, 1, 2, 3, 4, 5, 6, 8}
	answersBounds = []float64{0, 1, 2, 5, 10, 20, 50, 100}
	simBounds     = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1}
)

// observeQuality folds one computed run's result into the quality
// histograms: answers-per-query once (0 when the run returned no result),
// then per answer its Sim(Q,t) score.
func (m *serviceMetrics) observeQuality(res *core.Result) {
	if res == nil {
		m.answersPer.Observe(0)
		return
	}
	m.answersPer.Observe(float64(len(res.Answers)))
	for i := range res.Answers {
		m.answerSim.Observe(res.Answers[i].Sim)
	}
}

// observeDepth folds one finished trace into the relaxation-depth
// histogram, one observation per answer.
func (m *serviceMetrics) observeDepth(t *obs.Trace) {
	for i := range t.Answers {
		m.relaxDepth.Observe(float64(relaxDepth(t, &t.Answers[i])))
	}
}

// relaxDepth is the number of attributes dropped by the relaxation step
// that first retrieved answer a; zero when a came straight from the base
// set.
func relaxDepth(t *obs.Trace, a *obs.AnswerExplain) int {
	if a.FromBase || len(a.Steps) == 0 {
		return 0
	}
	if si := a.Steps[0]; si >= 0 && si < len(t.Steps) {
		return len(t.Steps[si].Dropped)
	}
	return 0
}

// stageHistograms holds one latency histogram per pipeline stage
// (base_set, relax, rank, ...), fed by the per-request trace spans. Exposed
// as aimq_service_stage_seconds{stage="..."} so a scrape answers "where do
// the milliseconds of an answer go" without attaching a profiler.
type stageHistograms struct {
	mu sync.Mutex
	m  map[string]*histogram
}

func (s *stageHistograms) Observe(stage string, seconds float64) {
	s.mu.Lock()
	h := s.m[stage]
	if h == nil {
		if s.m == nil {
			s.m = make(map[string]*histogram)
		}
		h = &histogram{bounds: latencyBounds}
		s.m[stage] = h
	}
	s.mu.Unlock()
	h.Observe(seconds)
}

// samples returns the stage histograms as family samples, sorted by stage
// name for deterministic rendering.
func (s *stageHistograms) samples() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]any, 0, 2*len(names))
	for _, name := range names {
		out = append(out, label("stage", name), s.m[name])
	}
	return out
}

// latencyBounds are the latency histogram bucket upper bounds in seconds.
// Answer latency spans cache hits (~µs) to deep relaxations (seconds), so
// the buckets run from 100µs to 10s.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket histogram. A mutex (not atomics) keeps
// sum/count/buckets mutually consistent; observation is far off the hot
// path relative to a relaxation run.
type histogram struct {
	// bounds are the bucket upper bounds, ascending. Set before the first
	// Observe — never after.
	bounds []float64

	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last bucket = +Inf
	sum    float64
	total  int64
}

func (h *histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]int64, len(h.bounds)+1)
	}
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts, the sum and the total count.
func (h *histogram) snapshot() ([]int64, float64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]int64, len(h.bounds)+1)
	var running int64
	for i := range cum {
		if i < len(h.counts) {
			running += h.counts[i]
		}
		cum[i] = running
	}
	return cum, h.sum, h.total
}

// escapeLabel escapes a Prometheus label value: backslash, double quote and
// newline, per the text exposition format. fmt's %q is close but not
// identical (it escapes non-printables to Go syntax scrapers reject).
func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders one name="value" label pair, escaping the value.
func label(name, value string) string {
	return name + `="` + escapeLabel(value) + `"`
}

// family writes one metric family: its HELP and TYPE lines, then its
// samples, given as label-set/value pairs. A label set is a rendered,
// comma-separated list of label pairs, or "" for none. A *histogram value
// expands to its cumulative buckets, sum and count; any other value prints
// with %v, so integer counters stay integers and float gauges take %g form.
func family(w io.Writer, typ, name, help string, samples ...any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := 0; i+1 < len(samples); i += 2 {
		labels := samples[i].(string)
		if h, ok := samples[i+1].(*histogram); ok {
			writeHistogram(w, name, labels, h)
			continue
		}
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s%s %v\n", name, labels, samples[i+1])
	}
}

// writeHistogram renders one histogram series. labels, when non-empty, is a
// rendered label list without the le pair, e.g. `stage="relax"`.
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	cum, sum, total := h.snapshot()
	comma := ""
	if labels != "" {
		comma = ","
	}
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, comma, bound, cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, comma, cum[len(cum)-1])
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
}

// handleMetrics writes the Prometheus text exposition. Everything is read
// at scrape time: the service's own counters and histograms, then each
// attached telemetry source — resilience middleware, the in-process engine,
// the model identity card, drift monitor, refresh controller and audit
// writer. A source that is not attached has no families.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := &s.met
	family(w, "gauge", "aimq_service_build_info", "Build metadata; value is always 1.",
		label("version", version.Version)+","+label("goversion", version.GoVersion()), 1)
	family(w, "counter", "aimq_service_requests_total", "Answer requests by outcome.",
		`status="ok"`, m.requestsOK.Load(), `status="error"`, m.requestsErr.Load(),
		`status="cancelled"`, m.requestsCancel.Load())
	family(w, "counter", "aimq_service_cache_hits_total", "Answer cache hits.", "", m.cacheHits.Load())
	family(w, "counter", "aimq_service_cache_misses_total", "Answer cache misses.", "", m.cacheMisses.Load())
	family(w, "counter", "aimq_service_singleflight_shared_total",
		"Requests that shared another in-flight identical query.", "", m.flightShared.Load())
	family(w, "counter", "aimq_service_relaxation_queries_total",
		"Boolean queries issued against the autonomous source.", "", m.relaxQueries.Load())
	family(w, "counter", "aimq_service_tuples_extracted_total",
		"Tuples returned by the autonomous source.", "", m.tuplesRead.Load())
	family(w, "counter", "aimq_service_slow_queries_total",
		"Answers slower than the configured slow-query threshold.", "", m.slowQueries.Load())
	family(w, "counter", "aimq_service_stale_serves_total",
		"Responses served from expired or error-bypassed cache entries (serve-stale degradation).",
		"", m.staleServes.Load())

	if s.res != nil {
		res := s.res.Stats()
		family(w, "counter", "aimq_source_retries_total",
			"Source query attempts beyond the first (resilience retry layer).", "", res.Retries)
		family(w, "counter", "aimq_source_fast_fails_total",
			"Source queries shed by an open circuit breaker.", "", res.FastFails)
		family(w, "counter", "aimq_source_failures_total",
			"Source queries that failed after exhausting retries.", "", res.Failures)
		family(w, "counter", "aimq_source_successes_total",
			"Source queries that succeeded (retried or not).", "", res.Successes)
		family(w, "gauge", "aimq_source_breaker_state",
			"Circuit breaker state: 0 closed, 1 half-open, 2 open.", "", float64(res.State))
		family(w, "counter", "aimq_source_breaker_transitions_total",
			"Circuit breaker transitions by target state.",
			`to="open"`, res.Opens, `to="half_open"`, res.HalfOpens, `to="closed"`, res.Closes)
	}

	if eng := s.engine(); eng != nil {
		// Boolean-engine execution counters (satellite of /debug/source):
		// how much physical work the columnar engine did for the relaxation
		// queries above, scraped alongside the service series so "queries
		// issued" and "chunks touched" share one dashboard.
		st := eng.Stats().Snapshot()
		family(w, "counter", "aimq_engine_queries_total",
			"Boolean queries executed by the in-process engine.", "", st.Queries)
		family(w, "counter", "aimq_engine_tuples_returned_total",
			"Tuples materialized by engine Execute calls.", "", st.TuplesReturned)
		family(w, "counter", "aimq_engine_tuples_scanned_total",
			"Tuples individually inspected by residual scans.", "", st.TuplesScanned)
		family(w, "counter", "aimq_engine_tuples_counted_total",
			"Tuples tallied by engine Count calls.", "", st.TuplesCounted)
		family(w, "counter", "aimq_engine_busy_seconds_total",
			"Wall time spent inside engine Execute/Count.", "", float64(st.BusyNanos)/1e9)
		family(w, "counter", "aimq_engine_chunks_visited_total",
			"Column chunks evaluated (after posting-AND pruning).", "", st.ChunksVisited)
		family(w, "counter", "aimq_engine_zone_killed_total",
			"Chunk evaluations eliminated entirely by a zone map.", "", st.ZoneKilled)
		family(w, "counter", "aimq_engine_zone_skipped_total",
			"Residual predicates satisfied chunk-wide by a zone map (scan skipped).", "", st.ZoneSkipped)
		family(w, "counter", "aimq_engine_posting_empty_total",
			"Chunk evaluations cut short by an empty posting intersection.", "", st.PostingEmpty)
		family(w, "counter", "aimq_engine_dense_rows_total",
			"Rows swept by dense residual scans.", "", st.DenseRows)
		family(w, "counter", "aimq_engine_sparse_checks_total",
			"Surviving rows probed by sparse residual checks.", "", st.SparseChecks)
		family(w, "counter", "aimq_engine_parallel_queries_total",
			"Queries executed on the parallel chunk-sharded path.", "", st.ParallelQueries)
	}

	pack := s.pack.Load()
	info := pack.info
	mon, rep := s.driftMonitor(), s.lifecycleReporter()
	// The generation and swap count accompany any model-level telemetry; a
	// bare service omits them.
	if pack.infoSet || mon != nil || rep != nil || s.audit != nil {
		family(w, "gauge", "aimq_model_generation",
			"Engine-pack swap generation (0 = the boot-time model, +1 per promote).", "", float64(pack.gen))
		family(w, "counter", "aimq_model_swaps_total",
			"Model hot-swaps performed (promotes and rollbacks).", "", m.modelSwaps.Load())
	}
	if info.Fingerprint != "" {
		family(w, "gauge", "aimq_model_version",
			"Served model identity; the version label is the model fingerprint, value is always 1.",
			label("version", info.Fingerprint)+","+label("built", strconv.FormatBool(info.Built)), 1)
	}
	if info.LearnedAtUnix != 0 {
		family(w, "gauge", "aimq_model_learned_timestamp_seconds",
			"Unix time the served model was learned.", "", float64(info.LearnedAtUnix))
		family(w, "gauge", "aimq_model_age_seconds",
			"Seconds since the served model was learned.", "", time.Since(info.LearnedAt()).Seconds())
	}
	if info.SampleSize != 0 {
		family(w, "gauge", "aimq_model_sample_size",
			"Probe-sample tuples the served model was mined from.", "", float64(info.SampleSize))
	}
	if mon != nil {
		d := mon.Status()
		family(w, "counter", "aimq_model_drift_ticks_total", "Drift monitor re-probe ticks.", "", d.Ticks)
		family(w, "counter", "aimq_model_drift_breaches_total",
			"Drift ticks whose max PSI crossed the warning threshold.", "", d.Breaches)
		family(w, "counter", "aimq_model_drift_errors_total",
			"Drift ticks that failed to re-probe the source.", "", d.Errors)
		family(w, "gauge", "aimq_model_drift_psi_warn",
			"PSI threshold at which a drift tick counts as a breach.", "", d.PSIWarn)
		if r := d.Last; r != nil {
			family(w, "gauge", "aimq_model_drift_max_psi",
				"Largest per-attribute PSI in the latest drift comparison.", "", r.MaxPSI)
			family(w, "gauge", "aimq_model_drift_key_error_delta",
				"Best-key g3 error on the fresh sample minus the learn-time baseline (AFD-confidence decay).",
				"", r.KeyErrorDelta)
			psi := make([]any, 0, 2*len(r.Attrs))
			for _, a := range r.Attrs {
				psi = append(psi, label("attr", a.Name), a.PSI)
			}
			family(w, "gauge", "aimq_model_drift_psi",
				"Per-attribute PSI between the learn-time baseline and the latest re-probe.", psi...)
		}
	}
	if rep != nil {
		r := rep.RefreshStats()
		family(w, "counter", "aimq_model_refresh_total", "Model refresh attempts by outcome.",
			`result="promoted"`, r.Promoted, `result="unchanged"`, r.Unchanged,
			`result="rejected"`, r.Rejected, `result="failed"`, r.Failed)
		inProgress := 0.0
		if r.State == "learning" || r.State == "validating" || r.State == "promoting" {
			inProgress = 1
		}
		family(w, "gauge", "aimq_model_refresh_in_progress",
			"1 while a model refresh attempt is running.", "", inProgress)
		family(w, "gauge", "aimq_model_refresh_consecutive_failures",
			"Failed or rejected refresh attempts since the last success.", "", float64(r.ConsecFailures))
		family(w, "gauge", "aimq_model_refresh_backoff_seconds",
			"Wait imposed before the next refresh attempt (0 = none).", "", r.BackoffSeconds)
		family(w, "gauge", "aimq_model_refresh_last_duration_seconds",
			"Duration of the most recent completed refresh attempt.", "", r.LastDurationSeconds)
		family(w, "counter", "aimq_model_rollbacks_total",
			"Post-promote quality breaches that rolled the model back.", "", r.Rollbacks)
	}
	if s.audit != nil {
		a := s.audit.Stats()
		family(w, "counter", "aimq_audit_events_written_total", "Audit wide events durably written.", "", a.Written)
		family(w, "counter", "aimq_audit_events_dropped_total",
			"Audit events dropped because the writer ring was full (log is incomplete).", "", a.Dropped)
		family(w, "counter", "aimq_audit_events_sampled_out_total",
			"Audit events skipped by 1-in-N sampling.", "", a.SampledOut)
		family(w, "counter", "aimq_audit_bytes_written_total", "Bytes appended to the audit log.", "", a.BytesWritten)
		family(w, "counter", "aimq_audit_rotations_total", "Audit log file rotations.", "", a.Rotations)
		family(w, "counter", "aimq_audit_errors_total", "Audit write or rotation failures.", "", a.Errors)
	}

	family(w, "gauge", "aimq_service_inflight_requests",
		"Answer requests currently being served.", "", float64(m.inflight.Load()))
	family(w, "gauge", "aimq_service_cache_entries",
		"Entries currently in the answer cache.", "", float64(s.cache.Len()))

	// Runtime health, read at scrape time: the serving process's goroutine
	// population, heap footprint and cumulative GC cost.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	family(w, "gauge", "aimq_service_goroutines", "Goroutines in the serving process.",
		"", float64(runtime.NumGoroutine()))
	family(w, "gauge", "aimq_service_heap_alloc_bytes", "Bytes of live heap objects.", "", float64(ms.HeapAlloc))
	family(w, "gauge", "aimq_service_heap_sys_bytes", "Heap bytes obtained from the OS.", "", float64(ms.HeapSys))
	family(w, "counter", "aimq_service_gc_cycles_total", "Completed GC cycles.", "", int64(ms.NumGC))
	family(w, "counter", "aimq_service_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
		"", float64(ms.PauseTotalNs)/1e9)

	family(w, "histogram", "aimq_service_answer_latency_seconds",
		"Answer latency (cache hits included).", "", &m.latency)
	if stages := m.stages.samples(); len(stages) > 0 {
		family(w, "histogram", "aimq_service_stage_seconds",
			"Time spent per answering-pipeline stage.", stages...)
	}
	family(w, "histogram", "aimq_service_relax_depth",
		"Attributes relaxed away to produce each answer (0 = answered from the base set).", "", &m.relaxDepth)
	family(w, "histogram", "aimq_service_answers_per_query",
		"Answers returned per computed (uncached) query.", "", &m.answersPer)
	family(w, "histogram", "aimq_service_answer_sim",
		"Sim(Q,t) scores of returned answers.", "", &m.answerSim)
}
