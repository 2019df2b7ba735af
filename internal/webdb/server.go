package webdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Server exposes a Source over HTTP in the style of a Web form front-end.
//
// Endpoints:
//
//	GET /schema
//	    → {"attributes":[{"name":"Make","type":"categorical"},...]}
//	GET /query?Make=Toyota&Price.lt=10000&limit=50
//	    → {"tuples":[["Toyota","Camry","2000","10000"],...]}
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
// Responses carry a "complete" flag: false means the page was cut by the
// limit and more rows exist — real Web forms page their results, and the
// client walks pages transparently. Tuples are serialized as string arrays
// (a Web form returns text); the client re-parses them under the schema.
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

type resultJSON struct {
	Tuples [][]string `json:"tuples"`
	// Complete is false when the page was cut by the limit.
	Complete bool `json:"complete"`
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
	q, limit, offset, err := parseForm(sc, r)
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
	out := resultJSON{Tuples: make([][]string, len(tuples)), Complete: complete}
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.Render(sc.Type(j))
		}
		out.Tuples[i] = row
	}
	writeJSON(w, http.StatusOK, out)
}

// parseForm converts form parameters into a boolean query.
func parseForm(sc *relation.Schema, r *http.Request) (*query.Query, int, int, error) {
	q := query.New(sc)
	limit, offset := 0, 0
	values := r.URL.Query()
	// range bounds are paired; collect then emit
	type bounds struct {
		lo, hi   float64
		has, hih bool
	}
	ranges := map[int]*bounds{}
	for key, vals := range values {
		if len(vals) == 0 {
			continue
		}
		raw := vals[0]
		if key == "limit" || key == "offset" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, 0, 0, fmt.Errorf("bad %s %q", key, raw)
			}
			if key == "limit" {
				limit = n
			} else {
				offset = n
			}
			continue
		}
		name, suffix := key, ""
		if i := strings.LastIndex(key, "."); i >= 0 {
			name, suffix = key[:i], key[i+1:]
		}
		attr, ok := sc.Index(name)
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown attribute %q", name)
		}
		typ := sc.Type(attr)
		switch suffix {
		case "":
			v, err := relation.ParseValue(raw, typ)
			if err != nil {
				return nil, 0, 0, err
			}
			q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpEq, Value: v})
		case "in":
			var values []relation.Value
			for _, part := range strings.Split(raw, "|") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				v, err := relation.ParseValue(part, typ)
				if err != nil {
					return nil, 0, 0, err
				}
				values = append(values, v)
			}
			if len(values) == 0 {
				return nil, 0, 0, fmt.Errorf("attribute %q: empty in-list", name)
			}
			q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpIn, Values: values})
		case "lt", "gt", "lo", "hi":
			if typ != relation.Numeric {
				return nil, 0, 0, fmt.Errorf("attribute %q is not numeric", name)
			}
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("bad numeric bound %q for %q", raw, name)
			}
			switch suffix {
			case "lt":
				q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpLess, Value: relation.Numv(f)})
			case "gt":
				q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpGreater, Value: relation.Numv(f)})
			case "lo":
				b := ranges[attr]
				if b == nil {
					b = &bounds{}
					ranges[attr] = b
				}
				b.lo, b.has = f, true
			case "hi":
				b := ranges[attr]
				if b == nil {
					b = &bounds{}
					ranges[attr] = b
				}
				b.hi, b.hih = f, true
			}
		default:
			return nil, 0, 0, fmt.Errorf("unknown form suffix %q on %q", suffix, key)
		}
	}
	for attr, b := range ranges {
		if !b.has || !b.hih {
			return nil, 0, 0, fmt.Errorf("attribute %s: range needs both .lo and .hi", sc.Attr(attr).Name)
		}
		q.Preds = append(q.Preds, query.Predicate{
			Attr: attr, Op: query.OpRange,
			Value: relation.Numv(b.lo), Hi: relation.Numv(b.hi),
		})
	}
	return q, limit, offset, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be logged; for this
	// simulator we swallow them (the client will see a truncated body).
	_ = json.NewEncoder(w).Encode(v)
}
