package webdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// seqSource wraps a Source and fails calls according to a script.
type seqSource struct {
	Src  Source
	fail func(call int) error // nil return = pass through

	mu    sync.Mutex
	calls int
}

func (s *seqSource) Schema() *relation.Schema { return s.Src.Schema() }

func (s *seqSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if s.fail != nil {
		if err := s.fail(n); err != nil {
			return nil, err
		}
	}
	return s.Src.QueryContext(ctx, q, limit)
}

func (s *seqSource) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func makeQuery(t *testing.T, src Source) *query.Query {
	t.Helper()
	return query.New(src.Schema()).Where("Make", query.OpEq, relation.Cat("Toyota"))
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		retry bool
		after time.Duration
	}{
		{"nil", nil, false, 0},
		{"cancelled", context.Canceled, false, 0},
		{"deadline", context.DeadlineExceeded, false, 0},
		{"breaker", fmt.Errorf("wrapped: %w", ErrBreakerOpen), false, 0},
		{"out-of-bounds", fmt.Errorf("webdb client: query: %w: response body over 1 bytes", errOutOfBounds), false, 0},
		{"http-400", &StatusError{Code: 400}, false, 0},
		{"http-404", &StatusError{Code: 404}, false, 0},
		{"http-429", &StatusError{Code: 429, RetryAfter: 3 * time.Second}, true, 3 * time.Second},
		{"http-500", &StatusError{Code: 500}, true, 0},
		{"http-503-wrapped", fmt.Errorf("query: %w", &StatusError{Code: 503}), true, 0},
		{"transport", errors.New("connection refused"), true, 0},
		{"injected", fmt.Errorf("%w: query 3", ErrInjected), true, 0},
	}
	for _, tc := range cases {
		retry, after := Retryable(tc.err)
		if retry != tc.retry || after != tc.after {
			t.Errorf("%s: Retryable = (%v, %v), want (%v, %v)", tc.name, retry, after, tc.retry, tc.after)
		}
	}
}

func TestRetryPolicyRetriesThenSucceeds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flake")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls %d; want (3, nil), 3", attempts, err, calls)
	}
}

func TestRetryPolicyTerminalStopsImmediately(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return &StatusError{Code: 404}
	})
	var se *StatusError
	if !errors.As(err, &se) || attempts != 1 || calls != 1 {
		t.Fatalf("terminal 404: attempts %d calls %d err %v; want 1 attempt", attempts, calls, err)
	}
}

func TestRetryPolicyExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 5 * time.Microsecond}
	sentinel := errors.New("always down")
	attempts, err := p.Do(context.Background(), func(context.Context) error { return sentinel })
	if !errors.Is(err, sentinel) || attempts != 4 {
		t.Fatalf("Do = (%d, %v), want (4, sentinel)", attempts, err)
	}
}

func TestRetryPolicyCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := RetryPolicy{MaxAttempts: 3}
	attempts, err := p.Do(ctx, func(context.Context) error {
		t.Fatal("op ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) || attempts != 0 {
		t.Fatalf("Do = (%d, %v), want (0, Canceled)", attempts, err)
	}
}

// TestRetryPolicyPerAttemptTimeout: an attempt that times out on its own
// (an http.Client timeout wraps context.DeadlineExceeded) under a live
// parent is a slow source, so Do retries it. The same error once the parent
// is cancelled is the caller giving up: no retry.
func TestRetryPolicyPerAttemptTimeout(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	for _, tc := range []struct {
		name         string
		cancelParent bool
		want         int // attempts and calls
	}{
		{"live parent", false, 2},
		{"cancelled parent", true, 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		attempts, err := p.Do(ctx, func(context.Context) error {
			calls++
			if tc.cancelParent {
				cancel()
			}
			return fmt.Errorf("source: %w", context.DeadlineExceeded)
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || attempts != tc.want || calls != tc.want {
			t.Errorf("%s: attempts %d calls %d err %v; want %d of each", tc.name, attempts, calls, err, tc.want)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for i := 0; i < 50; i++ {
		if d := p.Backoff(1, 0); d < 0 || d > 10*time.Millisecond {
			t.Fatalf("Backoff(1) = %v, want within [0, 10ms]", d)
		}
		// Far past the cap: jitter draws from [0, MaxDelay].
		if d := p.Backoff(20, 0); d < 0 || d > 80*time.Millisecond {
			t.Fatalf("Backoff(20) = %v, want within [0, 80ms]", d)
		}
		// Retry-After floors the jittered delay.
		if d := p.Backoff(1, 60*time.Millisecond); d < 60*time.Millisecond {
			t.Fatalf("Backoff with Retry-After = %v, want >= 60ms", d)
		}
	}
}

// testBreaker builds a breaker on a fake clock the test advances.
func testBreaker(cfg BreakerConfig) (*Breaker, *time.Time) {
	now := time.Unix(1000, 0)
	cfg.now = func() time.Time { return now }
	return NewBreaker(cfg), &now
}

func TestBreakerTripAndRecover(t *testing.T) {
	b, now := testBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second})
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied query %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a query before OpenTimeout")
	}
	*now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker denied the half-open probe after OpenTimeout")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	opens, halfOpens, closes := b.transitions()
	if opens != 1 || halfOpens != 1 || closes != 1 {
		t.Errorf("transitions = (%d, %d, %d), want (1, 1, 1)", opens, halfOpens, closes)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, now := testBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second})
	b.Allow()
	b.Record(false) // trip
	*now = now.Add(2 * time.Second)
	if !b.Allow() {
		t.Fatal("first probe denied")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted while the first is in flight")
	}
	b.Record(true) // probe wins; closed again
	if !b.Allow() {
		t.Fatal("closed breaker denied a query")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now := testBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second})
	b.Allow()
	b.Record(false)
	*now = now.Add(2 * time.Second)
	b.Allow()
	b.Record(false) // probe fails: back to open, clock restarts
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a query without a fresh OpenTimeout")
	}
}

func TestResilientRetriesThenSucceeds(t *testing.T) {
	src := &seqSource{Src: NewLocal(testRel()), fail: func(call int) error {
		if call <= 2 {
			return fmt.Errorf("%w: call %d", ErrInjected, call)
		}
		return nil
	}}
	r := NewResilient(src, ResilientConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
	})
	got, err := r.QueryContext(context.Background(), makeQuery(t, r), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("Query = %d tuples, %v; want 2 tuples through 2 retries", len(got), err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Successes != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v, want 2 retries, 1 success", st)
	}
}

func TestResilientTerminal4xxNotRetried(t *testing.T) {
	src := &seqSource{Src: NewLocal(testRel()), fail: func(int) error {
		return &StatusError{Code: 400, Msg: "bad param"}
	}}
	r := NewResilient(src, ResilientConfig{Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}})
	_, err := r.QueryContext(context.Background(), makeQuery(t, r), 0)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("err = %v, want the 400 StatusError", err)
	}
	if src.Calls() != 1 {
		t.Errorf("terminal 4xx hit the source %d times, want 1", src.Calls())
	}
	if st := r.Stats(); st.Failures != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want 1 failure, 0 retries", st)
	}
}

func TestResilientFastFailWhenOpen(t *testing.T) {
	boom := func(int) error { return fmt.Errorf("%w: down", ErrInjected) }
	src := &seqSource{Src: NewLocal(testRel()), fail: boom}
	r := NewResilient(src, ResilientConfig{
		Retry:   RetryPolicy{MaxAttempts: 1, BaseDelay: time.Microsecond},
		Breaker: BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour},
	})
	q := makeQuery(t, r)
	for i := 0; i < 2; i++ {
		if _, err := r.QueryContext(context.Background(), q, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("query %d: err = %v, want injected", i, err)
		}
	}
	before := src.Calls()
	rec := obs.NewRecorder("test", q.String())
	_, err := r.QueryContext(obs.WithRecorder(context.Background(), rec), q, 0)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if src.Calls() != before {
		t.Errorf("open breaker still hit the source (%d → %d calls)", before, src.Calls())
	}
	st := r.Stats()
	if st.FastFails != 1 || st.State != BreakerOpen || st.Opens != 1 {
		t.Errorf("stats = %+v, want 1 fast-fail with breaker open", st)
	}
	tr := rec.Finish()
	if len(tr.Source) != 1 || !tr.Source[0].FastFail || tr.Source[0].Breaker != "open" {
		t.Errorf("trace source events = %+v, want one fast-fail event", tr.Source)
	}
}

func TestResilientCancelledCallerNotCounted(t *testing.T) {
	src := &seqSource{Src: NewLocal(testRel())}
	r := NewResilient(src, ResilientConfig{Breaker: BreakerConfig{FailureThreshold: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.QueryContext(ctx, makeQuery(t, r), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	st := r.Stats()
	if st.Failures != 0 || st.State != BreakerClosed {
		t.Errorf("cancelled caller fed the breaker: %+v", st)
	}
}

func TestResilientRecordsRetriedEventInTrace(t *testing.T) {
	src := &seqSource{Src: NewLocal(testRel()), fail: func(call int) error {
		if call == 1 {
			return fmt.Errorf("%w: first call", ErrInjected)
		}
		return nil
	}}
	r := NewResilient(src, ResilientConfig{Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}})
	rec := obs.NewRecorder("test", "q")
	if _, err := r.QueryContext(obs.WithRecorder(context.Background(), rec), makeQuery(t, r), 0); err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()
	if len(tr.Source) != 1 || tr.Source[0].Retries != 1 || tr.Source[0].Failed {
		t.Errorf("source events = %+v, want one successful retried event", tr.Source)
	}
}
