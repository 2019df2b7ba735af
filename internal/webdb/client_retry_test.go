package webdb

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// flakyQueryServer serves /schema cleanly (so NewClient succeeds) and fails
// the first failN /query requests with the given status.
func flakyQueryServer(t *testing.T, status, failN int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	inner := NewServer(NewLocal(testRel()))
	var queryCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" && queryCalls.Add(1) <= int64(failN) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"transient"}`, status)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &queryCalls
}

func toyotaQuery(c *Client) *query.Query {
	return query.New(c.Schema()).Where("Make", query.OpEq, relation.Cat("Toyota"))
}

// resilientClient connects to srv and wraps the client in Resilient with
// three attempts and microsecond backoff: the client makes one attempt per
// request, and Resilient is the only retry layer.
func resilientClient(t *testing.T, srv *httptest.Server) (*Client, *Resilient) {
	t.Helper()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, NewResilient(c, ResilientConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
	})
}

func TestClientRetries5xx(t *testing.T) {
	srv, calls := flakyQueryServer(t, http.StatusServiceUnavailable, 2, "")
	c, r := resilientClient(t, srv)
	got, err := r.QueryContext(context.Background(), toyotaQuery(c), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("Query through 2×503 = %d tuples, %v; want success on the third attempt", len(got), err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("query requests = %d, want 3", n)
	}
}

func TestClientRetries429WithRetryAfter(t *testing.T) {
	srv, calls := flakyQueryServer(t, http.StatusTooManyRequests, 1, "0")
	c, r := resilientClient(t, srv)
	if got, err := r.QueryContext(context.Background(), toyotaQuery(c), 0); err != nil || len(got) != 2 {
		t.Fatalf("Query through one 429 = %d tuples, %v", len(got), err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("query requests = %d, want 2", n)
	}
}

func TestClientTerminal4xxNotRetried(t *testing.T) {
	srv, calls := flakyQueryServer(t, http.StatusBadRequest, 100, "")
	c, r := resilientClient(t, srv)
	_, err := r.QueryContext(context.Background(), toyotaQuery(c), 0)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 StatusError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("terminal 400 was retried: %d requests", n)
	}
}

func TestStatusErrorSurfacesRetryAfter(t *testing.T) {
	srv, _ := flakyQueryServer(t, http.StatusTooManyRequests, 100, "7")
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.QueryContext(context.Background(), toyotaQuery(c), 0) // the client's single attempt
	var se *StatusError
	if !errors.As(err, &se) || se.RetryAfter != 7*time.Second {
		t.Fatalf("err = %v, want StatusError carrying Retry-After 7s", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := map[string]time.Duration{
		"": 0, "3": 3 * time.Second, " 10 ": 10 * time.Second,
		"-1": 0, "garbage": 0, "Wed, 21 Oct 2015 07:28:00 GMT": 0,
		// Past what a Duration holds: the longest wait, not an overflow.
		"9223372036854775807": math.MaxInt64, "99999999999999999999": math.MaxInt64,
	}
	for in, want := range cases {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}
