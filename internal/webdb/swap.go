package webdb

import (
	"context"
	"sync/atomic"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// Swap is a Source whose inner source can be atomically replaced while
// queries are in flight: readers always see either the old or the new
// source, never a torn state. It is the seam for zero-downtime source (and,
// eventually, model) swaps — the drift end-to-end tests use it to mutate a
// source's distribution under a running monitor, and an online re-learn
// loop would use it to point the serving stack at refreshed data.
//
// Swapping assumes the schemas agree: the learned model is schema-pinned,
// so replacing the source with a differently-shaped relation would break
// every consumer anyway. Set does not check this — the caller owns the
// invariant.
type Swap struct {
	inner atomic.Pointer[sourceBox]
}

// sourceBox wraps the interface value so atomic.Pointer has a concrete
// type to point at.
type sourceBox struct{ src Source }

// NewSwap wraps src in a swappable holder.
func NewSwap(src Source) *Swap {
	s := &Swap{}
	s.inner.Store(&sourceBox{src: src})
	return s
}

// Set atomically replaces the inner source. In-flight queries finish
// against the source they started on.
func (s *Swap) Set(src Source) { s.inner.Store(&sourceBox{src: src}) }

// Get returns the current inner source.
func (s *Swap) Get() Source { return s.inner.Load().src }

// Schema implements Source.
func (s *Swap) Schema() *relation.Schema { return s.Get().Schema() }

// QueryContext implements Source on the current inner source.
func (s *Swap) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	return s.Get().QueryContext(ctx, q, limit)
}

// Unwrap exposes the current inner source to the Innermost chain walk, so
// engine-backed diagnostics keep working through a Swap.
func (s *Swap) Unwrap() Source { return s.Get() }
