// Resilience middleware for autonomous sources.
//
// AIMQ's premise is a database the system does not control (paper footnote
// 1): such sources time out, rate-limit and flake, and a mediator that
// serves millions of users cannot let one transport hiccup abort a
// relaxation schedule. Resilient wraps any Source with the standard
// battery:
//
//   - retry with exponential backoff and full jitter (RetryPolicy),
//     Retry-After honored, and errors classified as retryable (transport,
//     5xx, 429, the source's own timeout) vs terminal (other 4xx,
//     cancellation);
//   - a three-state circuit breaker (Breaker): closed → open on a
//     consecutive-failure threshold → half-open probe → closed, so a dead
//     source fails fast instead of stalling every relaxation step;
//   - counters (retries, fast-fails, breaker transitions) exported through
//     internal/service /metrics, and per-query SourceEvents recorded into
//     internal/obs traces so /answer?explain shows which steps were retried
//     or shed.
package webdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// StatusError is a non-2xx HTTP response from a remote source. Client
// returns it (instead of a flattened string) so the retry layer can
// classify the failure — 5xx and 429 are retryable, other 4xx are terminal
// — and honor the server's Retry-After.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

// Error implements error, preserving the historical client message shape.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.Code)
	}
	return fmt.Sprintf("server: HTTP %d", e.Code)
}

// ErrBreakerOpen marks queries shed without reaching the source because the
// circuit breaker is open. It is terminal for the retry layer (retrying a
// fast-fail defeats its purpose), and Algorithm 1 under core's degrading
// failure policy treats it as "stop relaxing, rank what we have".
var ErrBreakerOpen = errors.New("webdb: circuit breaker open")

// Retryable classifies err for the retry layer: transient failures —
// transport errors, HTTP 5xx, 429 — warrant another attempt; terminal ones
// — other 4xx, context cancellation, an open breaker, an answer past one
// of Client's bounds — do not. after is the server-mandated minimum wait
// (Retry-After), zero when none. Unknown errors default to retryable:
// against an autonomous source, flakiness is the premise and a wasted
// retry is cheaper than a lost answer.
func Retryable(err error) (retry bool, after time.Duration) {
	if err == nil {
		return false, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	if errors.Is(err, ErrBreakerOpen) || errors.Is(err, errOutOfBounds) {
		return false, 0
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.Code == http.StatusTooManyRequests:
			return true, se.RetryAfter
		case se.Code >= 500:
			return true, 0
		default:
			// The request itself is wrong (bad parameters, schema drift):
			// retrying reproduces the same rejection.
			return false, 0
		}
	}
	return true, 0
}

// RetryPolicy retries transient source failures with exponential backoff
// and full jitter. The zero value (withDefaults) makes a single attempt —
// retrying is opt-in.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per query (1 = no retry).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff, which doubles per attempt.
	// Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 2s. A Retry-After
	// longer than MaxDelay ends the retry loop with the source's error.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Backoff returns the sleep before the attempt following attempt (1-based):
// the exponential delay with full jitter — uniform in [0, delay], so
// synchronized clients spread out instead of thundering back in lockstep —
// floored by the server's Retry-After when one was given (Do never passes
// one above MaxDelay).
func (p RetryPolicy) Backoff(attempt int, after time.Duration) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	jittered := time.Duration(rand.Int63n(int64(d) + 1))
	if jittered < after {
		return after
	}
	return jittered
}

// Do runs op under the policy: classification via Retryable, jittered
// exponential backoff between attempts, and no retry at all when the
// source's Retry-After exceeds MaxDelay. It reports how many attempts were
// made alongside op's final error. The parent ctx bounds the whole loop; a
// backoff sleep cut by cancellation returns the last attempt's error rather
// than losing it.
func (p RetryPolicy) Do(ctx context.Context, op func(ctx context.Context) error) (int, error) {
	p = p.withDefaults()
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return attempts, err
		}
		err := op(ctx)
		attempts++
		if err == nil {
			return attempts, nil
		}
		if attempts >= p.MaxAttempts {
			return attempts, err
		}
		retry, after := Retryable(err)
		if !retry {
			// A deadline expiring under a live parent is the source's own
			// timeout (an http.Client timeout wraps DeadlineExceeded), a
			// slow source rather than a cancelled caller: retry it.
			if !(errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil) {
				return attempts, err
			}
		}
		if after > p.MaxDelay {
			// The source asked for a longer wait than any sleep the policy
			// makes: end the loop with its error rather than let an
			// autonomous source set the sleep.
			return attempts, err
		}
		if serr := sleepCtx(ctx, p.Backoff(attempts, after)); serr != nil {
			return attempts, err
		}
	}
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes queries through (healthy source).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits one probe at a time to test recovery: a
	// success closes the breaker, a failure reopens it.
	BreakerHalfOpen
	// BreakerOpen sheds every query without touching the source.
	BreakerOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerConfig tunes the circuit breaker. Zero values select the noted
// defaults.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures. Default 5.
	FailureThreshold int
	// OpenTimeout is how long an open breaker sheds before half-opening for
	// a probe. Default 10s.
	OpenTimeout time.Duration

	// now is a test hook for the open-timeout clock.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 10 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is a three-state circuit breaker. Safe for concurrent use. The
// usage protocol is Allow → (query) → Record(success); queries denied by
// Allow must not call Record.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	opens       int64
	halfOpens   int64
	closes      int64
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a query may proceed. While open it returns false
// (fast-fail) until OpenTimeout has elapsed, then half-opens and admits a
// single probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds one allowed query's outcome into the state machine.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if !success {
			b.tripLocked()
			return
		}
		b.state = BreakerClosed
		b.closes++
		b.consecFails = 0
	case BreakerClosed:
		if success {
			b.consecFails = 0
		} else {
			b.consecFails++
		}
		if b.consecFails >= b.cfg.FailureThreshold {
			b.tripLocked()
		}
	case BreakerOpen:
		// A query admitted before the trip is finishing late; its outcome
		// says nothing the trip didn't already.
	}
}

func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.opens++
	b.openedAt = b.cfg.now()
	b.consecFails = 0
	b.probing = false
}

// State returns the current state without advancing it (an elapsed open
// timeout still reads open until the next Allow half-opens it).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transitions returns the cumulative state-transition counts.
func (b *Breaker) transitions() (opens, halfOpens, closes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens, b.halfOpens, b.closes
}

// ResilienceStats snapshots a Resilient wrapper's counters and breaker
// state, for /metrics and the bench scenarios.
type ResilienceStats struct {
	State     BreakerState
	Retries   int64 // attempts beyond each query's first
	FastFails int64 // queries shed by an open breaker
	Failures  int64 // queries that failed after retries (caller-cancelled excluded)
	Successes int64
	Opens     int64 // breaker transitions into each state
	HalfOpens int64
	Closes    int64
}

// ResilientConfig assembles the middleware. Zero values select a
// serving-oriented default: 3 attempts with 50ms-base jittered backoff, and
// a breaker tripping on 5 consecutive failures.
type ResilientConfig struct {
	Retry   RetryPolicy
	Breaker BreakerConfig
}

// Resilient wraps a Source with retry/backoff and a circuit breaker. Each
// attempt passes the caller's context to the wrapped source, so
// cancellation reaches a wrapped Client's wire requests. Safe for
// concurrent use when the wrapped source is.
type Resilient struct {
	src     Source
	retry   RetryPolicy
	breaker *Breaker

	retries   atomic.Int64
	fastFails atomic.Int64
	failures  atomic.Int64
	successes atomic.Int64
}

// NewResilient wraps src. An unset Retry.MaxAttempts defaults to 3 — a
// resilience wrapper that never retries would be surprising.
func NewResilient(src Source, cfg ResilientConfig) *Resilient {
	if cfg.Retry.MaxAttempts <= 0 {
		cfg.Retry.MaxAttempts = 3
	}
	return &Resilient{src: src, retry: cfg.Retry.withDefaults(), breaker: NewBreaker(cfg.Breaker)}
}

// Schema implements Source.
func (r *Resilient) Schema() *relation.Schema { return r.src.Schema() }

// Unwrap returns the wrapped source (see Innermost).
func (r *Resilient) Unwrap() Source { return r.src }

// QueryContext implements Source: breaker check, then the retry loop
// around the wrapped source. When the context carries an obs recorder,
// noteworthy calls — retried, failed or shed — are recorded as SourceEvents
// so /answer?explain shows them; clean first-attempt successes are not
// (they would dwarf the trace).
func (r *Resilient) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	rec := obs.FromContext(ctx)
	if !r.breaker.Allow() {
		r.fastFails.Add(1)
		if rec.Active() {
			rec.AddSourceEvent(obs.SourceEvent{
				Query: q.String(), Breaker: r.breaker.State().String(),
				FastFail: true, Failed: true,
			})
		}
		return nil, fmt.Errorf("%w (query %s)", ErrBreakerOpen, q)
	}
	start := time.Now()
	var tuples []relation.Tuple
	attempts, err := r.retry.Do(ctx, func(actx context.Context) error {
		ts, aerr := r.src.QueryContext(actx, q, limit)
		if aerr == nil {
			tuples = ts
		}
		return aerr
	})
	if attempts > 1 {
		r.retries.Add(int64(attempts - 1))
	}
	if err == nil || ctx.Err() == nil {
		// A cancelled caller says nothing about source health; every other
		// outcome feeds the breaker.
		ok := err == nil
		r.breaker.Record(ok)
		if ok {
			r.successes.Add(1)
		} else {
			r.failures.Add(1)
		}
	}
	if rec.Active() && (err != nil || attempts > 1) {
		ev := obs.SourceEvent{
			Query: q.String(), Attempts: attempts, Retries: attempts - 1,
			Breaker:   r.breaker.State().String(),
			ElapsedMs: float64(time.Since(start).Nanoseconds()) / 1e6,
		}
		if err != nil {
			ev.Failed = true
			ev.Error = err.Error()
		}
		rec.AddSourceEvent(ev)
	}
	return tuples, err
}

// Breaker exposes the underlying breaker (health surfaces and tests).
func (r *Resilient) Breaker() *Breaker { return r.breaker }

// Stats snapshots the counters and breaker state.
func (r *Resilient) Stats() ResilienceStats {
	opens, halfOpens, closes := r.breaker.transitions()
	return ResilienceStats{
		State:     r.breaker.State(),
		Retries:   r.retries.Load(),
		FastFails: r.fastFails.Load(),
		Failures:  r.failures.Load(),
		Successes: r.successes.Load(),
		Opens:     opens,
		HalfOpens: halfOpens,
		Closes:    closes,
	}
}
