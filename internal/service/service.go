// Package service is the AIMQ answering daemon: a long-lived, concurrent
// HTTP JSON service that holds the learned model (attribute ordering +
// value-similarity matrices) in memory and answers imprecise queries with
// ranked Sim(Q,t) top-k results.
//
// This is the deployment shape the paper assumes — the expensive offline
// phase (probing, TANE mining, supertuple similarity estimation) runs once,
// then a mediator answers many cheap online queries against it. The serving
// layer adds what a production mediator needs on top of internal/core:
//
//   - an LRU answer cache keyed by the normalized query + k + Tsim, so
//     repeated imprecise queries skip relaxation entirely;
//   - single-flight deduplication, so a stampede of concurrent identical
//     queries triggers exactly one relaxation run against the source;
//   - per-request deadlines threaded through the relaxation loops
//     (core.Engine.AnswerContext), so slow sources degrade answers rather
//     than pile up goroutines;
//   - /metrics in Prometheus text format, /healthz, and graceful shutdown;
//   - end-to-end observability: every computed answer is traced through the
//     internal/obs recorder (base-set probes, per-step relaxation provenance,
//     per-attribute score contributions), retained in a /debug/traces ring,
//     fed into per-stage latency histograms, and — with explain=true —
//     returned to the client alongside the answers;
//   - structured request logs (log/slog) with generated request IDs, echoed
//     back as X-Request-ID.
//
// Endpoints:
//
//	GET  /answer?q=Model+like+Camry&k=5&tsim=0.6&timeout=500ms&explain=true
//	POST /answer   {"query":"Model like Camry","k":5,"tsim":0.6,"explain":true}
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/traces        (also under DebugHandler with pprof + expvar)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/drift"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/similarity"
	"aimq/internal/webdb"
)

// Config tunes the answering service. Zero values select serving defaults.
type Config struct {
	// Engine holds the per-request engine defaults (K, Tsim, relaxation
	// budgets). Clients may override K and Tsim per request within bounds.
	Engine core.Config
	// CacheSize is the LRU answer cache capacity in entries. Default 1024.
	CacheSize int
	// CacheTTL is how long a cached answer stays fresh. Expired entries are
	// kept (until LRU-evicted) and served with "stale": true when the
	// source's circuit breaker is open or a fresh computation fails —
	// serve-stale degradation. 0 = entries never expire (and stale-on-error
	// still serves them, marked stale, if a recomputation fails).
	CacheTTL time.Duration
	// RequestTimeout bounds each answer computation; client-supplied
	// timeouts are clamped to it. Default 30s.
	RequestTimeout time.Duration
	// MaxK caps client-requested k. Default 100.
	MaxK int
	// TraceRing is how many traces /debug/traces retains in each of its two
	// lists (most recent and slowest). Default 64; negative disables tracing
	// of non-explain requests entirely (explain=true still traces, since the
	// trace is the response).
	TraceRing int
	// TraceSample head-samples computed (uncached) requests into the trace
	// ring: 1 in every TraceSample runs is traced. Default (and anything
	// below 2) traces every computed request, matching historical behavior.
	// Explain requests are always traced. Sampling cuts trace cost but can
	// skip the tail; at the default every computed run is traced, and the
	// ring's slowest list keeps the worst ones whole.
	TraceSample int
	// SlowQuery is the computation-time threshold above which an answer is
	// logged at WARN and counted in aimq_service_slow_queries_total.
	// Default 500ms; negative disables the slow-query log.
	SlowQuery time.Duration
	// Logger receives the structured request log. Default slog.Default().
	Logger *slog.Logger
	// Audit, when set, receives one wide event per computed answer (the
	// durable query log). The writer is asynchronous and never blocks the
	// serving path; cache hits are not logged (they re-serve an already
	// recorded computation). The service does not close the writer — the
	// owner does, after Run returns.
	Audit *audit.Writer
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxK == 0 {
		c.MaxK = 100
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Service answers imprecise queries over one learned model. Safe for
// concurrent use; construct with New.
type Service struct {
	src webdb.Source
	// pack holds all model-derived serving state (estimator, relaxer, model
	// identity) behind one atomically swappable pointer — see enginePack.
	// Never nil after New. swapMu serializes writers (Promote, SetModelInfo);
	// readers load the pointer lock-free.
	pack   atomic.Pointer[enginePack]
	swapMu sync.Mutex
	cfg    Config

	cache  *lruCache
	raw    *rawIndex // raw GET query string → canonical cache key (fast path)
	flight *flightGroup
	met    serviceMetrics
	mux    *http.ServeMux
	start  time.Time
	ring   *obs.Ring
	// sampleSeq drives 1-in-TraceSample head sampling of ring traces.
	sampleSeq atomic.Uint64
	log       *slog.Logger
	// res is non-nil when the source is wrapped in resilience middleware
	// (webdb.Resilient or anything exposing its Stats): /healthz degrades on
	// an open breaker, /metrics exports the counters, and /answer serves
	// stale cache entries while the breaker sheds.
	res resilienceSource

	learnMu sync.Mutex
	learn   *obs.LearnStats

	// audit is the durable query log writer (nil = auditing off).
	audit *audit.Writer
	// ansObs, when set, observes every computed answer (see SetAnswerObserver);
	// the lifecycle controller's probation window feeds on it.
	ansObs atomic.Pointer[AnswerObserver]
	// infoMu guards the drift monitor and lifecycle reporter pointers, both
	// set once at startup and read by the telemetry surfaces. (The model
	// identity card lives in the pack.)
	infoMu    sync.Mutex
	driftMon  *drift.Monitor
	refresher RefreshReporter
}

// New assembles the service over a source and a learned model. The relaxer
// must be safe for concurrent Schedule calls (core.Guided is; core.Random,
// with its shared Rng, is not).
func New(src webdb.Source, est *similarity.Estimator, relaxer core.Relaxer, cfg Config) *Service {
	s := &Service{
		src:    src,
		cfg:    cfg.withDefaults(),
		flight: newFlightGroup(),
		start:  time.Now(),
	}
	s.pack.Store(&enginePack{est: est, relaxer: relaxer, keyPrefix: genPrefix(0)})
	s.met.latency.bounds = latencyBounds
	s.met.relaxDepth.bounds = depthBounds
	s.met.answersPer.bounds = answersBounds
	s.met.answerSim.bounds = simBounds
	s.cache = newLRUCache(s.cfg.CacheSize, s.cfg.CacheTTL)
	s.raw = newRawIndex(s.cfg.CacheSize)
	if rs, ok := src.(resilienceSource); ok {
		s.res = rs
	}
	ringCap := s.cfg.TraceRing
	if ringCap < 0 {
		ringCap = 0
	}
	s.ring = obs.NewRing(ringCap)
	s.log = s.cfg.Logger
	s.audit = s.cfg.Audit
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /answer", s.handleAnswer)
	s.mux.HandleFunc("POST /answer", s.handleAnswer)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/drift", s.handleDrift)
	obs.HandleTraces(s.mux, s.ring)
	return s
}

// SetLearnStats attaches the offline-phase profile (from BuildModel) so
// /debug/learn can report how the served model was built.
func (s *Service) SetLearnStats(ls *obs.LearnStats) {
	s.learnMu.Lock()
	s.learn = ls
	s.learnMu.Unlock()
}

// LearnStats returns the offline-phase profile, or nil when the model was
// loaded from a snapshot (nothing was learned in this process).
func (s *Service) LearnStats() *obs.LearnStats {
	s.learnMu.Lock()
	defer s.learnMu.Unlock()
	return s.learn
}

// resilienceSource is the face of webdb.Resilient the service consumes —
// an interface (satisfied by type assertion in New) so any future wrapper
// exposing the same stats plugs in.
type resilienceSource interface {
	Stats() webdb.ResilienceStats
}

// degraded reports whether the source's circuit breaker is shedding: the
// trigger for serving stale cache entries and for /healthz's "degraded".
func (s *Service) degraded() bool {
	return s.res != nil && s.res.Stats().State == webdb.BreakerOpen
}

// requestID extracts the request ID minted by ServeHTTP; empty when the
// handler runs outside the service's middleware (direct tests). The ID lives
// under the obs package's context key so the webdb client forwards it to
// remote sources as X-Request-ID.
func requestID(ctx context.Context) string {
	return obs.RequestIDFrom(ctx)
}

// traceCtxKey carries the caller's parsed traceparent through the request
// context, so compute's recorder can join the caller's distributed trace.
type traceCtxKey struct{}

// callerTrace extracts the caller's trace context; the zero value (invalid)
// means the caller sent none and a fresh trace should be minted.
func callerTrace(ctx context.Context) obs.TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(obs.TraceContext)
	return tc
}

// ServeHTTP implements http.Handler. Every request gets an ID — the caller's
// X-Request-ID when forwarded by a proxy, a generated one otherwise — echoed
// back in the response headers and attached to log lines and traces. Repeat
// GET /answer requests whose raw query string already resolved to a fresh
// cache entry take a fast path that skips the mux, URL and query parsing,
// ID minting and JSON encoding entirely (see tryFastAnswer).
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/answer" && s.tryFastAnswer(w, r) {
		return
	}
	id := obs.RequestID(r.Header.Get(obs.RequestIDHeader))
	w.Header().Set(obs.RequestIDHeader, id)
	ctx := obs.WithRequestID(r.Context(), id)
	if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		ctx = context.WithValue(ctx, traceCtxKey{}, tc)
	}
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// tryFastAnswer serves a GET /answer whose exact raw query string was
// answered before, straight from the rendered-bytes cache: one raw-index
// lookup, one cache lookup, an ETag check, and a single buffer splice of
// the per-request trailer. No URL parsing, no query parsing, no request-ID
// minting (the caller's X-Request-ID is still echoed when present), no JSON
// encoding — the zero-allocation serve path gated by the serve-warm bench.
// Returns false (nothing written) when the request must take the full path:
// unknown raw query, evicted or unservably-expired entry.
func (s *Service) tryFastAnswer(w http.ResponseWriter, r *http.Request) bool {
	raw := r.URL.RawQuery
	if raw == "" {
		return false
	}
	key, ok := s.raw.get(raw)
	if !ok {
		return false
	}
	// Keys are generation-scoped; a mapping registered by an in-flight
	// old-model computation after a promote flushed the index must not serve
	// a stale-model answer. One pointer load + prefix compare, no allocation.
	if !strings.HasPrefix(key, s.pack.Load().keyPrefix) {
		return false
	}
	start := time.Now()
	ca, expired, ok := s.cache.Get(key)
	if !ok {
		return false
	}
	stale := false
	if expired {
		if !s.degraded() {
			return false // recompute on the full path
		}
		stale = true
		s.met.staleServes.Add(1)
	}
	s.met.cacheHits.Add(1)
	s.met.requestsOK.Add(1)
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		w.Header().Set(obs.RequestIDHeader, obs.RequestID(id))
	}
	h := w.Header()
	h.Set("Etag", ca.etag)
	if r.Header.Get("If-None-Match") == ca.etag {
		w.WriteHeader(http.StatusNotModified)
	} else {
		writeCached(w, ca, stale, start)
	}
	s.observe(start)
	s.logAnswer("", raw, http.StatusOK, true, false, start, len(ca.payload.Answers))
	return true
}

// trailerPool recycles the splice buffers of writeCached.
var trailerPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// writeCached writes a cached answer as one pre-rendered body: the stored
// payload bytes with the closing brace replaced by the per-request
// "cached"/"stale"/"elapsed_ms" trailer. Byte-for-byte identical to
// json-encoding an answerResponse, without re-encoding the payload.
func writeCached(w http.ResponseWriter, ca *cachedAnswer, stale bool, start time.Time) {
	bp := trailerPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, ca.rendered[:len(ca.rendered)-1]...) // strip closing '}'
	b = append(b, `,"cached":true`...)
	if stale {
		b = append(b, `,"stale":true`...)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, msSince(start))
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	trailerPool.Put(bp)
}

// appendJSONFloat appends a float the way encoding/json renders float64
// (shortest round-trip form, no exponent for ordinary magnitudes).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64)
}

// answerPayload is the JSON body of a successful answer. Payloads are
// shared between the cache and concurrent responses, so they are immutable
// after construction.
type answerPayload struct {
	Query     string      `json:"query"`
	BaseQuery string      `json:"base_query"`
	K         int         `json:"k"`
	Tsim      float64     `json:"tsim"`
	Columns   []string    `json:"columns"`
	Answers   []answerRow `json:"answers"`
	Work      workJSON    `json:"work"`
	// Explain carries the full trace — spans, base probes, relaxation steps,
	// per-answer score decompositions — when the client asked for it.
	// Explained payloads are never cached, so the trace is always the run
	// that produced this exact response.
	Explain *obs.Trace `json:"explain,omitempty"`
	// queryText is the Parse-round-trippable form of Query, carried (but
	// never serialized) so the cache-warming snapshot can replay the
	// computation after a restart.
	queryText string
}

type answerRow struct {
	Values []string `json:"values"`
	Sim    float64  `json:"sim"`
}

type workJSON struct {
	QueriesIssued   int `json:"queries_issued"`
	TuplesExtracted int `json:"tuples_extracted"`
	TuplesQualified int `json:"tuples_qualified"`
	StepsPruned     int `json:"steps_pruned,omitempty"`
}

// answerResponse wraps a payload with per-request serving facts.
type answerResponse struct {
	*answerPayload
	Cached bool `json:"cached"`
	// Stale marks a payload served past its TTL (or after a failed
	// recomputation) because the source is degraded.
	Stale     bool    `json:"stale,omitempty"`
	Shared    bool    `json:"shared,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// errorResponse is the body of every non-2xx answer. Partial carries the
// ranked answers collected before a deadline cut the relaxation, when any.
type errorResponse struct {
	Error   string         `json:"error"`
	Partial *answerPayload `json:"partial,omitempty"`
}

// answerRequest is the POST /answer body; GET uses the matching query
// parameters (q, k, tsim, timeout, explain).
type answerRequest struct {
	Query   string  `json:"query"`
	K       int     `json:"k"`
	Tsim    float64 `json:"tsim"`
	Timeout string  `json:"timeout"`
	Explain bool    `json:"explain"`
}

func (s *Service) handleAnswer(w http.ResponseWriter, r *http.Request) {
	startReq := time.Now()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	req, err := parseAnswerRequest(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.met.requestsErr.Add(1)
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	q, err := query.Parse(s.src.Schema(), req.Query)
	if err != nil {
		s.met.requestsErr.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if len(q.Preds) == 0 {
		s.met.requestsErr.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
		return
	}
	k, tsim, err := s.bounds(req)
	if err != nil {
		s.met.requestsErr.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	timeout := s.cfg.RequestTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			s.met.requestsErr.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad timeout %q", req.Timeout)})
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	reqID := requestID(ctx)

	// One pack load per request: the cache key, the computation and the
	// audit record all see the same model even if a promote lands mid-run.
	pack := s.currentPack()
	key := pack.keyPrefix + cacheKey(q, k, tsim)
	if !req.Explain {
		if ca, expired, ok := s.cache.Get(key); ok {
			serveStale := expired && s.degraded()
			if !expired || serveStale {
				// Fresh hit, or an expired entry served stale because the
				// breaker is open: recomputing would only shed against the
				// dead source, so degraded freshness wins.
				if serveStale {
					s.met.staleServes.Add(1)
				}
				s.met.cacheHits.Add(1)
				s.met.requestsOK.Add(1)
				s.registerRaw(r, key)
				s.observe(startReq)
				s.logAnswer(reqID, req.Query, http.StatusOK, true, false, startReq, len(ca.payload.Answers))
				s.serveCached(w, ca, serveStale, startReq)
				return
			}
		}
		s.met.cacheMisses.Add(1)
	}

	// Explained answers bypass the cache in both directions (the trace must
	// describe this run, and a cached payload must never carry one), but
	// still share a flight with concurrent identical explain requests —
	// under a distinct key, since the payload shape differs.
	flightKey := key
	if req.Explain {
		flightKey += "|explain"
	}
	payload, err, shared := s.flight.Do(ctx, flightKey, func() (*answerPayload, error) {
		p, err := s.computeWith(ctx, pack, q, k, tsim, reqID, req.Explain)
		if err == nil && !req.Explain {
			s.cache.Add(key, p)
		}
		return p, err
	})
	if shared {
		s.met.flightShared.Add(1)
	}
	s.observe(startReq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.met.requestsCancel.Add(1)
			s.logAnswer(reqID, req.Query, http.StatusGatewayTimeout, false, shared, startReq, 0)
			// 504: the deadline expired before relaxation finished. The
			// body still carries the ranked partial answer set, if any.
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Partial: payload})
			return
		}
		// Stale-on-error: a failed recomputation with any cached payload —
		// fresh or expired — still answers 200, marked stale. The cache
		// key's payload is immutable, so this costs one lookup.
		if !req.Explain {
			if stale, _, ok := s.cache.Get(key); ok {
				s.met.staleServes.Add(1)
				s.met.requestsOK.Add(1)
				s.logAnswer(reqID, req.Query, http.StatusOK, true, shared, startReq, len(stale.payload.Answers))
				s.serveCached(w, stale, true, startReq)
				return
			}
		}
		status := http.StatusInternalServerError
		if errors.Is(err, webdb.ErrBreakerOpen) {
			// Nothing cached and the breaker is shedding: 503 tells load
			// balancers and clients to back off, unlike a generic 500.
			status = http.StatusServiceUnavailable
		}
		s.met.requestsErr.Add(1)
		s.logAnswer(reqID, req.Query, status, false, shared, startReq, 0)
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	s.met.requestsOK.Add(1)
	if !req.Explain {
		s.registerRaw(r, key)
		// Tag the computed answer too, so conditional requests work from
		// the first response. The ETag identifies the payload (the cached
		// rendering), not the per-request trailer fields.
		if ca, _, ok := s.cache.Get(key); ok && ca.payload == payload {
			w.Header().Set("Etag", ca.etag)
		}
	}
	s.logAnswer(reqID, req.Query, http.StatusOK, false, shared, startReq, len(payload.Answers))
	writeJSON(w, http.StatusOK, answerResponse{
		answerPayload: payload, Cached: false, Shared: shared, ElapsedMs: msSince(startReq),
	})
}

// registerRaw remembers that this GET's raw query string resolves to the
// given cache key, arming the fast path for the next identical request.
// POST bodies and explain requests never register (explain responses are
// uncacheable by design).
func (s *Service) registerRaw(r *http.Request, key string) {
	if r.Method == http.MethodGet && r.URL.RawQuery != "" {
		s.raw.put(r.URL.RawQuery, key)
	}
}

// serveCached answers from a cached entry: its pre-rendered bytes with the
// spliced trailer, plus the entry's ETag.
func (s *Service) serveCached(w http.ResponseWriter, ca *cachedAnswer, stale bool, start time.Time) {
	w.Header().Set("Etag", ca.etag)
	writeCached(w, ca, stale, start)
}

// logAnswer emits one structured line per answered request. The Enabled
// check happens here, before the variadic call boxes its arguments — with
// the handler filtering above the line's level (as the benchmarks do), the
// log line costs nothing, which is what keeps the fast path allocation-free.
func (s *Service) logAnswer(reqID, q string, status int, cached, shared bool, start time.Time, answers int) {
	lvl := slog.LevelInfo
	if status >= 400 {
		lvl = slog.LevelWarn
	}
	if !s.log.Enabled(context.Background(), lvl) {
		return
	}
	s.log.Log(context.Background(), lvl, "answer",
		"request_id", reqID, "query", q, "status", status,
		"cached", cached, "shared", shared,
		"elapsed_ms", msSince(start), "answers", answers)
}

// bounds resolves and validates the per-request k and Tsim.
func (s *Service) bounds(req *answerRequest) (int, float64, error) {
	engDefaults := s.cfg.Engine
	k := req.K
	switch {
	case k < 0:
		return 0, 0, fmt.Errorf("k must be positive, got %d", k)
	case k == 0:
		if k = engDefaults.K; k == 0 {
			k = 10
		}
	case k > s.cfg.MaxK:
		k = s.cfg.MaxK
	}
	tsim := req.Tsim
	switch {
	case tsim < 0 || tsim >= 1:
		return 0, 0, fmt.Errorf("tsim must be in [0,1), got %g", tsim)
	case tsim == 0:
		if tsim = engDefaults.Tsim; tsim == 0 {
			tsim = 0.5
		}
	}
	return k, tsim, nil
}

// computeWith runs one relaxation pass against an explicit engine pack, so
// a request (or a cache-warming pass) runs entirely on the model it loaded,
// even if a promote swaps the serving pack mid-computation. On a context
// error it returns the partial payload (when the engine salvaged any
// answers) together with the error; partial payloads are never cached.
//
// The run is traced when the client asked for an explanation or when it
// falls in the trace ring's head sample. An attached audit log forces the
// recorder too, so every audited computation carries a trace ID and
// relaxation-depth provenance. The finished trace feeds the per-stage and
// relaxation-depth histograms; a sampled or explain trace also feeds the
// ring, and an explain trace rides on the payload itself. Every run, traced
// or not, feeds the answers-per-query and Sim histograms from its result,
// and is timed on its own for the slow-query counter and log.
func (s *Service) computeWith(ctx context.Context, pack *enginePack, q *query.Query, k int, tsim float64, traceID string, explain bool) (*answerPayload, error) {
	cfg := s.cfg.Engine
	cfg.K = k
	cfg.Tsim = tsim
	text := q.String() // rendered once for the trace and the payload
	var rec *obs.Recorder
	sampled := s.ring != nil && s.sampleHit()
	if explain || sampled || s.audit != nil {
		if traceID == "" {
			traceID = obs.NewRequestID()
		}
		// The recorder adopts the caller's traceparent when one arrived, so
		// this run — and every source probe it issues — joins the caller's
		// distributed trace.
		rec = obs.NewRecorderWith(traceID, text, callerTrace(ctx))
		ctx = obs.WithRecorder(ctx, rec)
	}
	eng := core.New(s.src, pack.est, pack.relaxer, cfg)
	start := time.Now()
	res, err := eng.AnswerContext(ctx, q)
	elapsed := time.Since(start)
	if res != nil {
		s.met.relaxQueries.Add(int64(res.Work.QueriesIssued))
		s.met.tuplesRead.Add(int64(res.Work.TuplesExtracted))
	}
	s.met.observeQuality(res)
	var tr *obs.Trace
	if rec != nil {
		t := rec.Finish()
		tr = &t
		if explain || sampled {
			s.ring.Add(t)
		}
		s.met.observeDepth(&t)
		for name, d := range rec.SpanDurations() {
			s.met.stages.Observe(name, d.Seconds())
		}
		s.met.stages.Observe("total", t.ElapsedMs/1000)
	}
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.logSlow(traceID, text, elapsed, res, tr, err)
	}
	if err != nil {
		if res != nil && len(res.Answers) > 0 {
			p := s.payload(q, text, res, k, tsim)
			if explain {
				p.Explain = tr
			}
			s.auditRecord(pack, q, p, tr, k, tsim, explain, true)
			return p, err
		}
		return nil, err
	}
	p := s.payload(q, text, res, k, tsim)
	if explain {
		p.Explain = tr
	}
	s.auditRecord(pack, q, p, tr, k, tsim, explain, false)
	s.notifyAnswer(pack, p)
	return p, nil
}

// logSlow counts one computed answer slower than the slow-query threshold
// and logs it from the run's own elapsed time, work and answer count, with
// the trace's relaxation steps and base-set size when the run was traced.
func (s *Service) logSlow(reqID, text string, elapsed time.Duration, res *core.Result, tr *obs.Trace, err error) {
	s.met.slowQueries.Add(1)
	queries, answers := 0, 0
	if res != nil {
		queries, answers = res.Work.QueriesIssued, len(res.Answers)
	}
	attrs := []any{"request_id", reqID, "query", text, "elapsed_ms", float64(elapsed) / 1e6,
		"queries_issued", queries, "answers", answers}
	if tr != nil {
		attrs = append(attrs, "relax_steps", len(tr.Steps), "base_count", tr.BaseCount)
	}
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	s.log.Warn("slow query", append(attrs, "error", errText)...)
}

// payload builds the response body; text is q.String().
func (s *Service) payload(q *query.Query, text string, res *core.Result, k int, tsim float64) *answerPayload {
	sc := s.src.Schema()
	p := &answerPayload{
		Query:     text,
		queryText: q.Text(),
		K:         k,
		Tsim:      tsim,
		Columns:   sc.Names(),
		Answers:   make([]answerRow, 0, len(res.Answers)),
		Work: workJSON{
			QueriesIssued:   res.Work.QueriesIssued,
			TuplesExtracted: res.Work.TuplesExtracted,
			TuplesQualified: res.Work.TuplesQualified,
			StepsPruned:     res.Work.StepsPruned,
		},
	}
	if res.Precise != nil {
		p.BaseQuery = res.Precise.String()
	}
	for _, a := range res.Answers {
		row := answerRow{Sim: a.Sim, Values: make([]string, len(a.Tuple))}
		for i, v := range a.Tuple {
			row.Values[i] = v.Render(sc.Type(i))
		}
		p.Answers = append(p.Answers, row)
	}
	return p
}

// handleHealthz reports liveness. A degraded source — circuit breaker not
// closed — flips status to "degraded" (still HTTP 200: the process is
// healthy and serving, possibly from stale cache; orchestrators must not
// restart it for a remote source's outage).
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"cache_entries":  s.cache.Len(),
	}
	if mb := s.modelBlock(); mb != nil {
		body["model"] = mb
	}
	if rep := s.lifecycleReporter(); rep != nil {
		body["refresh"] = rep.RefreshStats()
	}
	if s.res != nil {
		st := s.res.Stats()
		body["breaker"] = st.State.String()
		if st.State != webdb.BreakerClosed {
			body["status"] = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// sampleHit reports whether this computed run falls in the head sample:
// every run when TraceSample < 2, 1 in every TraceSample runs otherwise.
func (s *Service) sampleHit() bool {
	n := uint64(s.cfg.TraceSample)
	if n < 2 {
		return true
	}
	return s.sampleSeq.Add(1)%n == 1
}

func (s *Service) observe(start time.Time) {
	s.met.latency.Observe(time.Since(start).Seconds())
}

// Metrics exposes the counters for tests and the load generator's summary.
func (s *Service) Metrics() (cacheHits, cacheMisses, relaxQueries int64) {
	return s.met.cacheHits.Load(), s.met.cacheMisses.Load(), s.met.relaxQueries.Load()
}

// SharedFlights returns how many requests piggybacked on another request's
// in-flight identical computation — the single-flight dedup count the
// contention benchmark asserts on.
func (s *Service) SharedFlights() int64 { return s.met.flightShared.Load() }

// StaleServes returns how many responses were served from expired or
// error-bypassed cache entries — the serve-stale degradation count the
// chaos benchmark asserts on.
func (s *Service) StaleServes() int64 { return s.met.staleServes.Load() }

// maxAnswerBody bounds the POST /answer body. A request is one query string
// and four scalars; a larger body is refused with 413 rather than buffered.
const maxAnswerBody = 64 << 10

func parseAnswerRequest(w http.ResponseWriter, r *http.Request) (*answerRequest, error) {
	if r.Method == http.MethodPost {
		var req answerRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnswerBody)).Decode(&req); err != nil {
			return nil, fmt.Errorf("bad request body: %w", err)
		}
		if strings.TrimSpace(req.Query) == "" {
			return nil, errors.New("missing \"query\"")
		}
		return &req, nil
	}
	vals := r.URL.Query()
	req := &answerRequest{Query: vals.Get("q"), Timeout: vals.Get("timeout")}
	if req.Query == "" {
		req.Query = vals.Get("query")
	}
	if req.Query == "" {
		return nil, errors.New("missing q parameter")
	}
	if raw := vals.Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("bad k %q", raw)
		}
		req.K = n
	}
	if raw := vals.Get("tsim"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("bad tsim %q", raw)
		}
		req.Tsim = f
	}
	if raw := vals.Get("explain"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("bad explain %q", raw)
		}
		req.Explain = b
	}
	return req, nil
}

// cacheKey normalizes a parsed query for caching: its canonical text
// (query.Text) joined with the effective k and Tsim, which both change the
// answer set. Text sorts the clauses, so predicate order never changes the
// key, and Parse reads Text back to the same predicates (FuzzParse), so two
// different queries never share one.
func cacheKey(q *query.Query, k int, tsim float64) string {
	return fmt.Sprintf("%s|k=%d|tsim=%g", q.Text(), k, tsim)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
