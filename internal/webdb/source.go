// Package webdb simulates the autonomous Web database that AIMQ operates
// over: a non-local database "accessible only via a Web (form) based
// interface" (paper footnote 1).
//
// The package has three layers:
//
//   - Source: the interface every AIMQ component queries through. Local
//     (in-process engine) and Remote (HTTP client) implementations are
//     interchangeable, so the whole pipeline — probing, mining, relaxation —
//     runs identically against a true remote source.
//   - Server: an net/http handler that exposes an engine through a
//     form-style GET /query endpoint, the way a Web form front-end would.
//   - Client: the matching HTTP client with optional fault injection used by
//     the failure tests.
//
// The Source deliberately exposes only boolean conjunctive queries with a
// result limit — no ranking, no similarity, no schema statistics beyond the
// schema itself. That asymmetry is the premise of the paper.
package webdb

import (
	"context"
	"fmt"
	"sync/atomic"

	"aimq/internal/engine"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Source is an autonomous database reachable only through boolean
// conjunctive queries.
type Source interface {
	// Schema returns the relation's schema (a Web form reveals its fields).
	Schema() *relation.Schema
	// Query returns tuples satisfying q, up to limit (limit <= 0: no cap).
	Query(q *query.Query, limit int) ([]relation.Tuple, error)
}

// ContextSource is a Source whose queries honor a context — remote sources
// abort in-flight HTTP requests on cancellation. Wrappers that embed another
// Source should implement it by delegation so cancellation survives
// middleware like ProbeCounter.
type ContextSource interface {
	Source
	QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error)
}

// QueryContext issues q against src under ctx when src supports it, falling
// back to a plain Query after an upfront cancellation check. Callers that
// loop over many source queries (the relaxation engine) use this so a
// deadline stops both the loop and, for remote sources, the wire request.
func QueryContext(ctx context.Context, src Source, q *query.Query, limit int) ([]relation.Tuple, error) {
	if cs, ok := src.(ContextSource); ok {
		return cs.QueryContext(ctx, q, limit)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return src.Query(q, limit)
}

// ProbeCounter wraps a Source and counts issued queries and returned tuples.
// The data collector uses it to report probing cost; the experiment harness
// uses it to measure the work performed by each relaxation strategy. Safe
// for concurrent use (the collector probes in parallel).
type ProbeCounter struct {
	Src     Source
	queries atomic.Int64
	tuples  atomic.Int64
}

// Schema implements Source.
func (p *ProbeCounter) Schema() *relation.Schema { return p.Src.Schema() }

// Query implements Source, counting the probe.
func (p *ProbeCounter) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	ts, err := p.Src.Query(q, limit)
	p.queries.Add(1)
	p.tuples.Add(int64(len(ts)))
	return ts, err
}

// QueryContext implements ContextSource by delegating to the wrapped source,
// so counting middleware does not strip cancellation support.
func (p *ProbeCounter) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	ts, err := QueryContext(ctx, p.Src, q, limit)
	p.queries.Add(1)
	p.tuples.Add(int64(len(ts)))
	return ts, err
}

// Unwrap returns the wrapped source, so callers can walk a middleware
// chain (ProbeCounter, Resilient, …) down to capability interfaces like the
// engine-backed Local.
func (p *ProbeCounter) Unwrap() Source { return p.Src }

// Unwrapper is implemented by middleware sources that wrap another Source.
type Unwrapper interface {
	Unwrap() Source
}

// Innermost walks Unwrap chains to the base source.
func Innermost(src Source) Source {
	for {
		u, ok := src.(Unwrapper)
		if !ok {
			return src
		}
		src = u.Unwrap()
	}
}

// Queries returns the number of queries issued so far.
func (p *ProbeCounter) Queries() int64 { return p.queries.Load() }

// Tuples returns the number of tuples returned so far.
func (p *ProbeCounter) Tuples() int64 { return p.tuples.Load() }

// Reset zeroes the counters.
func (p *ProbeCounter) Reset() {
	p.queries.Store(0)
	p.tuples.Store(0)
}

// Local is a Source backed by an in-process engine. It is the default
// substrate for experiments (the paper populated a local MySQL instance
// with the crawled data for the same reason).
type Local struct {
	eng *engine.Engine
}

// NewLocal wraps a relation in a local source backed by the columnar
// bitmap engine.
func NewLocal(rel *relation.Relation) *Local {
	return &Local{eng: engine.New(rel)}
}

// Schema implements Source.
func (l *Local) Schema() *relation.Schema { return l.eng.Relation().Schema() }

// Query implements Source.
func (l *Local) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	if err := l.checkSchema(q); err != nil {
		return nil, err
	}
	return l.eng.ExecuteTuples(q, limit), nil
}

// QueryContext implements ContextSource. Local execution cannot be aborted
// mid-query (it is a few microseconds of bitmap work), but the context
// carries the trace recorder: when one is active the engine runs in EXPLAIN
// ANALYZE mode and the compiled plan + chunk counters are recorded for the
// relaxation step (or base probe) this query belongs to.
func (l *Local) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	rec := obs.FromContext(ctx)
	if !rec.Active() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return l.Query(q, limit)
	}
	if err := l.checkSchema(q); err != nil {
		return nil, err
	}
	var ex obs.EngineExec
	tuples := l.eng.ExecuteTuplesExplained(q, limit, &ex)
	rec.AddEngineExec(ex)
	return tuples, nil
}

func (l *Local) checkSchema(q *query.Query) error {
	if q.Schema != l.Schema() {
		// Accept structurally identical schemas (e.g. a client-side copy).
		if q.Schema.String() != l.Schema().String() {
			return fmt.Errorf("webdb: query schema %s does not match source schema %s", q.Schema, l.Schema())
		}
	}
	return nil
}

// Engine exposes the underlying engine (for stats in tests and benches).
func (l *Local) Engine() *engine.Engine { return l.eng }
