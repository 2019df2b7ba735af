package main

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/core"
	"aimq/internal/engine"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// layer names a boundary the traced run times from outside.
type layer uint8

const (
	lRequest layer = iota // the load generator's view: due (or picked) → body read
	lHTTP                 // client round trip
	lService              // Service.ServeHTTP
	lCore                 // core.Engine.AnswerContext, in the direct core pass
	lRelax                // core.Relaxer.Schedule
	lWebdb                // a Source call beneath webdb.Resilient
	lServer               // the remote source's HTTP handler
	lEngine               // columnar engine busy time within one source call
	lRefresh              // lifecycle: drift → promote observed
	lLearn                // lifecycle: the re-learn function
	nLayers
)

var layerNames = [nLayers]string{
	"request", "http", "service", "core", "relax.schedule",
	"webdb", "webdb.server", "engine", "lifecycle.refresh", "lifecycle.learn",
}

// span is one timed call. Spans of one request share req, its
// X-Request-ID; parents are resolved from interval nesting at the end.
type span struct {
	req        string
	layer      layer
	start, end int64 // ns since the tracer's origin
	// n is tuples returned (webdb), bytes written (webdb.server) or steps
	// scheduled (relax.schedule).
	n      int64
	failed bool
}

func (s span) dur() int64 { return s.end - s.start }

// storedSpan is a span with its request ID interned. It holds no pointers,
// so the hundreds of thousands a run keeps cost the garbage collector
// nothing to scan while the service allocates.
type storedSpan struct {
	req        int32
	layer      layer
	failed     bool
	start, end int64
	n          int64
}

// tracer keeps every span in memory; they are analysed and written once,
// after the run.
type tracer struct {
	origin time.Time
	// exact turns on per-call engine spans, read as engine Stats deltas
	// around each source call. They are exact only while a single goroutine
	// queries the source, so only the direct core pass sets it.
	exact atomic.Bool
	// refreshID names the lifecycle refresh in progress; source calls
	// without a request ID (the re-learn's probes) are attributed to it.
	refreshID atomic.Pointer[string]

	mu    sync.Mutex
	ids   map[string]int32
	names []string
	spans []storedSpan
}

func newTracer() *tracer { return &tracer{origin: time.Now(), ids: map[string]int32{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) add(s span) {
	if s.req == "" {
		return // set-up and cache-warming calls belong to no measured request
	}
	t.mu.Lock()
	id, ok := t.ids[s.req]
	if !ok {
		id = int32(len(t.names))
		t.ids[s.req] = id
		t.names = append(t.names, s.req)
	}
	t.spans = append(t.spans, storedSpan{req: id, layer: s.layer, failed: s.failed, start: s.start, end: s.end, n: s.n})
	t.mu.Unlock()
}

// requestID is the ID source calls are attributed to.
func (t *tracer) requestID(ctx context.Context) string {
	if id := obs.RequestIDFrom(ctx); id != "" {
		return id
	}
	return t.currentRefresh()
}

// currentRefresh is the ID of the lifecycle refresh in progress, or "".
func (t *tracer) currentRefresh() string {
	if p := t.refreshID.Load(); p != nil {
		return *p
	}
	return ""
}

// timedSource times every source call. It sits beneath webdb.Resilient and
// keeps the ContextSource and Unwrapper faces, so the service still reaches
// the Resilient Stats and, through Unwrap, the engine behind /metrics.
type timedSource struct {
	src     webdb.Source
	tr      *tracer
	engines []*engine.Engine
	local   bool // the engine runs in this process, under this call
}

func (s *timedSource) Schema() *relation.Schema { return s.src.Schema() }

func (s *timedSource) Unwrap() webdb.Source { return s.src }

func (s *timedSource) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	return s.QueryContext(context.Background(), q, limit)
}

func (s *timedSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	id := s.tr.requestID(ctx)
	exact := s.local && s.tr.exact.Load()
	var before int64
	if exact {
		before = sumStats(s.engines).BusyNanos
	}
	start := s.tr.now()
	ts, err := webdb.QueryContext(ctx, s.src, q, limit)
	end := s.tr.now()
	s.tr.add(span{req: id, layer: lWebdb, start: start, end: end, n: int64(len(ts)), failed: err != nil})
	if exact {
		busy := sumStats(s.engines).BusyNanos - before
		s.tr.add(span{req: id, layer: lEngine, start: start, end: start + busy})
	}
	return ts, err
}

// timedHandler times Service.ServeHTTP.
type timedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.add(span{req: r.Header.Get(obs.RequestIDHeader), layer: lService, start: start, end: h.tr.now()})
}

// timedServer times the remote source's handler; webdb.Client forwards the
// caller's X-Request-ID, which ties each call to its answer request.
type timedServer struct {
	next    http.Handler
	tr      *tracer
	engines []*engine.Engine
}

func (h *timedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	exact := h.tr.exact.Load()
	var before int64
	if exact {
		before = sumStats(h.engines).BusyNanos
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.tr.now()
	h.next.ServeHTTP(cw, r)
	id := r.Header.Get(obs.RequestIDHeader)
	h.tr.add(span{req: id, layer: lServer, start: start, end: h.tr.now(), n: cw.n})
	if exact {
		busy := sumStats(h.engines).BusyNanos - before
		h.tr.add(span{req: id, layer: lEngine, start: start, end: start + busy})
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// timedRelaxer times Schedule in the direct core pass, which answers one
// query at a time, so req is simply the query being answered.
type timedRelaxer struct {
	core.Relaxer
	tr  *tracer
	req string
}

func (r *timedRelaxer) Schedule(bound relation.AttrSet) []relation.AttrSet {
	start := r.tr.now()
	s := r.Relaxer.Schedule(bound)
	r.tr.add(span{req: r.req, layer: lRelax, start: start, end: r.tr.now(), n: int64(len(s))})
	return s
}

// corePassStats is what the direct core pass reads from each core.Result.
type corePassStats struct {
	queries                                  int
	base, pruned, issued, extract, qualified int64
}

// corePass answers queries one at a time with core.Engine.AnswerContext on
// the serving model and the stack's wrapped source. Its spans separate
// core's own time from the relaxation schedule and the source calls, which
// the served run cannot see inside the service.
func corePass(st *stack, model *service.Model, tr *tracer, queries []string) (corePassStats, error) {
	tr.exact.Store(true)
	defer tr.exact.Store(false)
	relaxer := &timedRelaxer{Relaxer: &core.Guided{Ord: model.Ord}, tr: tr}
	eng := core.New(st.res, model.Est, relaxer, st.w.engineConfig())
	var cs corePassStats
	for i, text := range queries {
		q, err := query.Parse(st.res.Schema(), text)
		if err != nil {
			return cs, err
		}
		id := "b" + strconv.Itoa(i)
		relaxer.req = id
		start := tr.now()
		res, err := eng.AnswerContext(obs.WithRequestID(context.Background(), id), q)
		tr.add(span{req: id, layer: lCore, start: start, end: tr.now()})
		if err != nil {
			return cs, err
		}
		cs.queries++
		cs.base += int64(len(res.Base))
		cs.pruned += int64(res.Work.StepsPruned)
		cs.issued += int64(res.Work.QueriesIssued)
		cs.extract += int64(res.Work.TuplesExtracted)
		cs.qualified += int64(res.Work.TuplesQualified)
	}
	return cs, nil
}

// tree is one request's spans with resolved parents.
type tree struct {
	req    string
	spans  []span
	parent []int   // index into spans, -1 for the root(s)
	self   []int64 // duration minus the union of the children's intervals
}

// buildTrees groups spans by request and nests them by interval: a span's
// parent is the innermost earlier-starting span that contains it.
func (t *tracer) buildTrees() map[string]*tree {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make([]*tree, len(t.names))
	for _, s := range t.spans {
		tr := byID[s.req]
		if tr == nil {
			tr = &tree{req: t.names[s.req]}
			byID[s.req] = tr
		}
		tr.spans = append(tr.spans, span{req: tr.req, layer: s.layer, start: s.start, end: s.end, n: s.n, failed: s.failed})
	}
	trees := make(map[string]*tree, len(byID))
	for _, tr := range byID {
		if tr != nil {
			trees[tr.req] = tr
		}
	}
	for _, tr := range trees {
		sort.SliceStable(tr.spans, func(i, j int) bool {
			a, b := tr.spans[i], tr.spans[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end > b.end
			}
			return a.layer < b.layer
		})
		tr.parent = make([]int, len(tr.spans))
		tr.self = make([]int64, len(tr.spans))
		covered := make([]int64, len(tr.spans))
		coveredTo := make([]int64, len(tr.spans))
		var open []int
		for i, s := range tr.spans {
			for len(open) > 0 && tr.spans[open[len(open)-1]].end < s.end {
				open = open[:len(open)-1]
			}
			tr.parent[i] = -1
			if len(open) > 0 {
				p := open[len(open)-1]
				tr.parent[i] = p
				// Children arrive in start order: add the part of this
				// child not already covered by an earlier sibling.
				from := max(s.start, coveredTo[p])
				if s.end > from {
					covered[p] += s.end - from
					coveredTo[p] = s.end
				}
			}
			open = append(open, i)
		}
		for i, s := range tr.spans {
			tr.self[i] = s.dur() - covered[i]
		}
	}
	return trees
}

// writeSpans writes the chosen trees as Chrome trace-event JSON
// (obs.WriteChromeTrace), loadable in Perfetto: one track per request.
func writeSpans(path string, origin time.Time, trees []*tree, label func(req string) string) error {
	traces := make([]obs.Trace, 0, len(trees))
	for _, tr := range trees {
		if len(tr.spans) == 0 {
			continue
		}
		root := tr.spans[0]
		t := obs.Trace{
			ID:        tr.req,
			Query:     label(tr.req),
			Start:     origin.Add(time.Duration(root.start)),
			ElapsedMs: float64(root.dur()) / 1e6,
		}
		t.Spans = make([]obs.Span, 0, len(tr.spans))
		for i, s := range tr.spans {
			sp := obs.Span{
				Name:    layerNames[s.layer],
				ID:      strconv.Itoa(i),
				StartMs: float64(s.start-root.start) / 1e6,
				DurMs:   float64(s.dur()) / 1e6,
			}
			if p := tr.parent[i]; p >= 0 {
				sp.Parent = strconv.Itoa(p)
			}
			t.Spans = append(t.Spans, sp)
		}
		traces = append(traces, t)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.WriteChromeTrace(bw, traces); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
