package webdb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aimq/internal/query"
)

// allRows is an unconstrained query over the 5-row test relation.
func allRows(src Source) *query.Query { return query.New(src.Schema()) }

func TestChaosFailEveryDeterministic(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{FailEvery: 3})
	q := allRows(c)
	fails := 0
	for i := 1; i <= 9; i++ {
		_, err := c.Query(q, 0)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: err = %v, want injected", i, err)
			}
			fails++
			if i%3 != 0 {
				t.Errorf("call %d failed; FailEvery=3 should fail only multiples of 3", i)
			}
		}
	}
	cc := c.Counters()
	if fails != 3 || cc.Calls != 9 || cc.Failures != 3 {
		t.Errorf("fails %d, counters %+v; want 3 failures over 9 calls", fails, cc)
	}
}

func TestChaosSeededReproducible(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, FailProb: 0.3, RateLimitProb: 0.1, TruncateProb: 0.2}
	outcome := func() []string {
		c := NewChaos(NewLocal(testRel()), cfg)
		q := allRows(c)
		var out []string
		for i := 0; i < 100; i++ {
			ts, err := c.Query(q, 0)
			switch {
			case err != nil:
				out = append(out, "err")
			case len(ts) < 5:
				out = append(out, "trunc")
			default:
				out = append(out, "ok")
			}
		}
		return out
	}
	a, b := outcome(), outcome()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identical seeds: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestChaosRateLimit(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{RateLimitProb: 1, RetryAfter: 5 * time.Millisecond})
	_, err := c.Query(allRows(c), 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 || se.RetryAfter != 5*time.Millisecond {
		t.Fatalf("err = %v, want a 429 StatusError with Retry-After 5ms", err)
	}
	if retry, after := Retryable(err); !retry || after != 5*time.Millisecond {
		t.Errorf("injected 429 classified (%v, %v), want retryable with the 429's Retry-After", retry, after)
	}
	if cc := c.Counters(); cc.RateLimits != 1 {
		t.Errorf("counters = %+v, want 1 rate limit", cc)
	}
}

func TestChaosBurst(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{BurstEvery: 5, BurstLen: 3})
	q := allRows(c)
	var pattern []bool
	for i := 1; i <= 12; i++ {
		_, err := c.Query(q, 0)
		pattern = append(pattern, err != nil)
	}
	// Calls 5,6,7 fail (burst), then 10,11,12 (the next burst starts at 10).
	want := []bool{false, false, false, false, true, true, true, false, false, true, true, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("burst pattern %v, want %v", pattern, want)
		}
	}
}

func TestChaosTruncate(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{TruncateProb: 1})
	ts, err := c.Query(allRows(c), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 { // 5 rows halved
		t.Errorf("truncated result = %d tuples, want 2 of 5", len(ts))
	}
	if cc := c.Counters(); cc.Truncated != 1 {
		t.Errorf("counters = %+v, want 1 truncation", cc)
	}
}

func TestChaosLatencyHonorsContext(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{MinLatency: time.Minute, MaxLatency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.QueryContext(ctx, allRows(c), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled latency injection held the caller %v", elapsed)
	}
}

// TestChaosConcurrent hammers one Chaos from many goroutines; run under
// `make race` it proves the injector's state is synchronized.
func TestChaosConcurrent(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{Seed: 7, FailProb: 0.3, RateLimitProb: 0.1, TruncateProb: 0.2})
	q := allRows(c)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, _ = c.QueryContext(context.Background(), q, 0)
			}
		}()
	}
	wg.Wait()
	cc := c.Counters()
	if cc.Calls != goroutines*perG {
		t.Errorf("calls = %d, want %d", cc.Calls, goroutines*perG)
	}
	if cc.Failures == 0 || cc.RateLimits == 0 {
		t.Errorf("no faults injected across %d calls: %+v", cc.Calls, cc)
	}
}

// TestChaosProbabilistic: FailProb fails about that share of calls.
func TestChaosProbabilistic(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{Seed: 1, FailProb: 0.5})
	q := allRows(c)
	var failed int
	for i := 0; i < 200; i++ {
		if _, err := c.Query(q, 1); err != nil {
			failed++
		}
	}
	if failed < 60 || failed > 140 {
		t.Errorf("FailProb=0.5 over 200 calls failed %d times", failed)
	}
}

// TestChaosContextDelegation: with no latency injected, Chaos still hands
// the caller's context to the wrapped source, so a cancelled caller is not
// served.
func TestChaosContextDelegation(t *testing.T) {
	c := NewChaos(NewLocal(testRel()), ChaosConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryContext(ctx, allRows(c), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context ignored: err = %v", err)
	}
}

// Compile-time interface checks for every wrapper in the package.
var (
	_ ContextSource = (*Chaos)(nil)
	_ ContextSource = (*Resilient)(nil)
	_ ContextSource = (*ProbeCounter)(nil)
	_ ContextSource = (*Client)(nil)
)
