package webdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// ErrInjected marks failures produced by the fault injectors; tests match it
// with errors.Is.
var ErrInjected = errors.New("injected source failure")

// ChaosConfig describes the fault mix a Chaos source injects. All modes are
// independent; zero values disable them.
type ChaosConfig struct {
	// Seed fixes the fault schedule; the same seed and call sequence yields
	// the same failures, so chaos tests and benches are reproducible.
	Seed int64
	// FailProb fails each query with this probability (generic failure).
	FailProb float64
	// FailEvery fails every n-th query deterministically. 0 disables.
	FailEvery int
	// RateLimitProb fails each query with an HTTP 429 StatusError carrying
	// RetryAfter, emulating a rate-limiting source.
	RateLimitProb float64
	// RetryAfter is the Retry-After attached to injected 429s. Default 1ms.
	RetryAfter time.Duration
	// MinLatency/MaxLatency inject a uniform random delay per query
	// (context-aware: a cancelled caller is released immediately).
	MinLatency time.Duration
	MaxLatency time.Duration
	// BurstEvery starts an error burst every n-th query: that query and the
	// following BurstLen-1 all fail. Bursts are what trip circuit breakers;
	// isolated failures only cost retries.
	BurstEvery int
	// BurstLen is the burst length. Default 1 when BurstEvery is set.
	BurstLen int
	// TruncateProb silently truncates a successful result to half its
	// tuples with this probability (an autonomous source under load sheds
	// rows without reporting an error).
	TruncateProb float64
}

// ChaosCounters reports what a Chaos source actually injected.
type ChaosCounters struct {
	Calls      int64
	Failures   int64 // generic + burst failures
	RateLimits int64 // injected 429s
	Truncated  int64
	Delayed    int64
}

// chaosPlan is one query's fate, decided under the mutex so the rng stream
// stays deterministic regardless of goroutine interleaving.
type chaosPlan struct {
	call     int64
	delay    time.Duration
	err      error
	truncate bool
}

// Chaos wraps a Source and injects the failure modes of an autonomous Web
// database: transient errors, error bursts, rate limiting (429 with
// Retry-After), latency, and silently truncated results. It is seeded and
// deterministic — the same config over the same call sequence injects the
// same faults — and safe for concurrent use: all mutable state (rng, call
// counter, burst window) lives under one mutex. It implements ContextSource
// by delegation, so wrapping a Client does not strip cancellation.
type Chaos struct {
	src Source

	mu        sync.Mutex
	cfg       ChaosConfig
	rng       *rand.Rand
	calls     int64
	burstLeft int
	counters  ChaosCounters
}

// NewChaos wraps src with the given fault mix.
func NewChaos(src Source, cfg ChaosConfig) *Chaos {
	return &Chaos{src: src, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetConfig swaps the fault mix at runtime (keeping the rng stream), so a
// test can run a healthy phase, then "break" the source mid-flight.
func (c *Chaos) SetConfig(cfg ChaosConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
	c.burstLeft = 0
}

// Counters snapshots the injection counters.
func (c *Chaos) Counters() ChaosCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// plan decides one query's fate. Ordering matters for determinism: the
// burst and FailEvery checks return before any rng draw, and the rng draws
// happen in a fixed order, so deterministic modes never shift the
// probabilistic stream.
func (c *Chaos) plan() chaosPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.counters.Calls++
	p := chaosPlan{call: c.calls}
	if c.cfg.MaxLatency > 0 {
		span := c.cfg.MaxLatency - c.cfg.MinLatency
		p.delay = c.cfg.MinLatency
		if span > 0 {
			p.delay += time.Duration(c.rng.Int63n(int64(span) + 1))
		}
		c.counters.Delayed++
	}
	if c.burstLeft > 0 {
		c.burstLeft--
		c.counters.Failures++
		p.err = fmt.Errorf("%w: burst, query %d", ErrInjected, p.call)
		return p
	}
	if c.cfg.BurstEvery > 0 && c.calls%int64(c.cfg.BurstEvery) == 0 {
		n := c.cfg.BurstLen
		if n <= 0 {
			n = 1
		}
		c.burstLeft = n - 1
		c.counters.Failures++
		p.err = fmt.Errorf("%w: burst, query %d", ErrInjected, p.call)
		return p
	}
	if c.cfg.FailEvery > 0 && c.calls%int64(c.cfg.FailEvery) == 0 {
		c.counters.Failures++
		p.err = fmt.Errorf("%w: query %d", ErrInjected, p.call)
		return p
	}
	if c.cfg.RateLimitProb > 0 && c.rng.Float64() < c.cfg.RateLimitProb {
		after := c.cfg.RetryAfter
		if after <= 0 {
			after = time.Millisecond
		}
		c.counters.RateLimits++
		p.err = fmt.Errorf("%w: query %d: %w", ErrInjected,
			p.call, &StatusError{Code: 429, Msg: "rate limited", RetryAfter: after})
		return p
	}
	if c.cfg.FailProb > 0 && c.rng.Float64() < c.cfg.FailProb {
		c.counters.Failures++
		p.err = fmt.Errorf("%w: query %d", ErrInjected, p.call)
		return p
	}
	if c.cfg.TruncateProb > 0 && c.rng.Float64() < c.cfg.TruncateProb {
		c.counters.Truncated++
		p.truncate = true
	}
	return p
}

// Schema implements Source.
func (c *Chaos) Schema() *relation.Schema { return c.src.Schema() }

// Query implements Source.
func (c *Chaos) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	return c.QueryContext(context.Background(), q, limit)
}

// QueryContext implements ContextSource, injecting faults per configuration.
func (c *Chaos) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	p := c.plan()
	if p.delay > 0 {
		if err := sleepCtx(ctx, p.delay); err != nil {
			return nil, err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	ts, err := QueryContext(ctx, c.src, q, limit)
	if err == nil && p.truncate && len(ts) > 1 {
		ts = ts[:len(ts)/2]
	}
	return ts, err
}
