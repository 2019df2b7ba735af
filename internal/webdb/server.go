package webdb

import (
	"encoding/json"
	"net/http"

	"aimq/internal/obs"
)

// Server exposes a Source over HTTP in the style of a Web form front-end.
//
// Endpoints:
//
//	GET /schema
//	    → {"attributes":[{"name":"Make","type":"categorical"},...]}
//	GET /query?Make=Toyota&Price.lt=10000&limit=50
//	    → {"tuples":[["Toyota","Camry","2000","10000"],...],"complete":false}
//
// Query parameters map to the boolean query model:
//
//	Attr=v        equality
//	Attr.in=a|b   disjunctive equality (multi-select)
//	Attr.lt=v     numeric <
//	Attr.gt=v     numeric >
//	Attr.lo=v & Attr.hi=v   inclusive numeric range
//	limit=n       page size
//	offset=n      page start
//
// The /query wire format lives in wire.go, one codec for both sides. The
// form is what url.Values.Encode writes (keys sorted and query-escaped,
// the last value set for a key wins); the server parses the raw query with
// url.ParseQuery's pair rules ('&' separates pairs, a pair holding ';' or a
// malformed escape is skipped, the first value of a repeated key wins) and
// emits predicates in schema order. The page is exactly what
// json.NewEncoder(w).Encode writes for the object above: every value its
// rendered text (a Web form returns text), '<', '>' and '&' escaped, and a
// trailing newline. So the server and any client of either encoder
// interoperate. /schema, /stats and error bodies go through encoding/json.
//
// Responses carry a "complete" flag: false means the page was cut by the
// limit and more rows exist — real Web forms page their results, and the
// client walks pages transparently, re-parsing each string under the
// schema. The client believes only what it asked for: a page with more
// rows than its limit, or an incomplete page with fewer, fails the query;
// a body is read up to 16 MiB; and an unlimited query reads at most 2,000
// pages of 500 rows.
type Server struct {
	src  Source
	mux  *http.ServeMux
	ring *obs.Ring // non-nil once EnableTracing is called
}

// EnableTracing makes the server a distributed-tracing participant: every
// /query request runs under a trace recorder that adopts the caller's
// traceparent header (or starts a fresh trace), records the engine's
// EXPLAIN ANALYZE when the source is engine-backed, and lands the finished
// trace in ring. Responses echo X-Request-ID and carry X-Trace-ID so both
// sides of the hop can be correlated from logs alone.
func (s *Server) EnableTracing(ring *obs.Ring) { s.ring = ring }

// Ring returns the trace ring installed by EnableTracing (nil when tracing
// is off).
func (s *Server) Ring() *obs.Ring { return s.ring }

// NewServer builds the HTTP façade over src. When src is (or wraps) a
// ProbeCounter, a GET /stats endpoint reports the cumulative query and
// tuple counts.
func NewServer(src Source) *Server {
	s := &Server{src: src, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /schema", s.handleSchema)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	if pc, ok := src.(*ProbeCounter); ok {
		s.mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, statsJSON{Queries: pc.Queries(), Tuples: pc.Tuples()})
		})
	}
	return s
}

type statsJSON struct {
	Queries int64 `json:"queries"`
	Tuples  int64 `json:"tuples"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type schemaJSON struct {
	Attributes []attrJSON `json:"attributes"`
}

type attrJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	sc := s.src.Schema()
	out := schemaJSON{Attributes: make([]attrJSON, sc.Arity())}
	for i := 0; i < sc.Arity(); i++ {
		a := sc.Attr(i)
		out.Attributes[i] = attrJSON{Name: a.Name, Type: a.Type.String()}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sc := s.src.Schema()
	q, limit, offset, err := parseForm(sc, r.URL.RawQuery)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	ctx := r.Context()
	var rec *obs.Recorder
	var text string // the query's rendering, shared by the trace and its probe
	if s.ring != nil {
		id := obs.RequestID(r.Header.Get(obs.RequestIDHeader))
		tc, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		text = q.String()
		rec = obs.NewRecorderWith(id, text, tc)
		ctx = obs.WithRecorder(obs.WithRequestID(ctx, id), rec)
		w.Header().Set(obs.RequestIDHeader, id)
		w.Header().Set("X-Trace-ID", rec.TraceID())
	}
	// Paging: fetch offset+limit (one extra row detects truncation) and
	// slice the page out. The engine's result order is deterministic per
	// query, so consecutive pages do not overlap.
	fetch := 0
	if limit > 0 {
		fetch = offset + limit + 1
	}
	tuples, err := QueryContext(ctx, s.src, q, fetch)
	if rec.Active() {
		// The probe record adopts any engine EXPLAIN the source recorded.
		rec.BaseProbe(text, len(tuples), err != nil)
		rec.SetError(err)
		defer func() { s.ring.Add(rec.Finish()) }()
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	complete := true
	if offset > len(tuples) {
		tuples = nil
	} else {
		tuples = tuples[offset:]
	}
	if limit > 0 && len(tuples) > limit {
		tuples = tuples[:limit]
		complete = false
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendResult((*buf)[:0], sc, tuples, complete)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a failed write leaves the client a truncated page
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be logged; for this
	// simulator we swallow them (the client will see a truncated body).
	_ = json.NewEncoder(w).Encode(v)
}
