// Package webdb simulates the autonomous Web database that AIMQ operates
// over: a non-local database "accessible only via a Web (form) based
// interface" (paper footnote 1).
//
// The package has three layers:
//
//   - Source: the interface every AIMQ component queries through, one call
//     under the caller's context. Local (in-process engine) and Client
//     (HTTP) implementations are interchangeable, so the whole pipeline —
//     probing, mining, relaxation — runs identically against a true remote
//     source. Middleware sources wrap another one: ProbeCounter counts,
//     Resilient retries and trips a circuit breaker, Chaos injects faults
//     and Swap replaces the source in flight.
//   - Server: an net/http handler that exposes an engine through a
//     form-style GET /query endpoint, the way a Web form front-end would.
//   - Client: the matching HTTP client. It makes one HTTP attempt per page
//     (retrying is Resilient's job) and bounds what a hostile source can
//     make it read.
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
	// QueryContext returns tuples satisfying q, up to limit (limit <= 0: no
	// cap). A cancelled ctx stops the call: a query not yet sent is not
	// sent, and a remote source aborts its wire request. Middleware passes
	// ctx to the source it wraps.
	QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error)
}

// QueryContext is src.QueryContext(ctx, q, limit). It is kept because the
// perfbench module's trace.go calls it and compiles against this package
// unmodified.
func QueryContext(ctx context.Context, src Source, q *query.Query, limit int) ([]relation.Tuple, error) {
	return src.QueryContext(ctx, q, limit)
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

// QueryContext implements Source, counting the query.
func (p *ProbeCounter) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	ts, err := p.Src.QueryContext(ctx, q, limit)
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

// QueryContext implements Source. Local execution cannot be aborted
// mid-query (it is a few microseconds of bitmap work), so a cancelled ctx
// is checked once, before the query runs. The context also carries the
// trace recorder: when one is active the engine runs in EXPLAIN ANALYZE
// mode and the compiled plan + chunk counters are recorded for the
// relaxation step (or base probe) this query belongs to.
func (l *Local) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.checkSchema(q); err != nil {
		return nil, err
	}
	rec := obs.FromContext(ctx)
	if !rec.Active() {
		return l.eng.ExecuteTuples(q, limit), nil
	}
	ex := obs.EngineExec{Plan: rec.PlanBuffer()}
	tuples := l.eng.ExecuteTuplesExplained(q, limit, &ex)
	rec.AddEngineExec(&ex)
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
