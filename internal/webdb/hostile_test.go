package webdb

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// hostileSource serves a real /schema and answers every /query with page,
// counting the calls. A source the mediator does not own may answer
// anything; these tests pin what the client then does.
func hostileSource(t *testing.T, page func(w http.ResponseWriter, r *http.Request)) (*Client, *atomic.Int64) {
	t.Helper()
	honest := NewServer(NewLocal(testRel()))
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/query" {
			honest.ServeHTTP(w, r)
			return
		}
		calls.Add(1)
		page(w, r)
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, &calls
}

// rows renders a page body of n CarDB rows.
func rows(n int, complete bool) string {
	var b strings.Builder
	b.WriteString(`{"tuples":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`["Toyota","Camry","2000","` + strconv.Itoa(i) + `"]`)
	}
	b.WriteString(`],"complete":` + strconv.FormatBool(complete) + "}\n")
	return b.String()
}

// bareAndResilient is c alone and c behind NewResilient with 3 attempts.
// A bound violation is terminal, so both draw the same requests.
func bareAndResilient(c *Client) []Source {
	return []Source{c, NewResilient(c, ResilientConfig{Retry: RetryPolicy{MaxAttempts: 3}})}
}

// queryWithin runs an unlimited or limited query under a deadline, so a
// client that never stops fails the test instead of hanging it.
func queryWithin(t *testing.T, src Source, limit int) ([]relation.Tuple, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tuples, err := src.QueryContext(ctx, query.New(src.Schema()), limit)
	if ctx.Err() != nil {
		t.Fatalf("query ran into its deadline (%v): the client did not stop the source", err)
	}
	return tuples, err
}

// TestClientRejectsRowsPastLimit: a source that ignores limit and sends
// 5,000 rows for a limit-200 query fails the query; it is not data.
func TestClientRejectsRowsPastLimit(t *testing.T) {
	c, calls := hostileSource(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(rows(5000, true)))
	})
	for _, src := range bareAndResilient(c) {
		calls.Store(0)
		tuples, err := queryWithin(t, src, 200)
		if err == nil || !strings.Contains(err.Error(), "5000 rows for a page of 200") {
			t.Fatalf("%T: limit-200 query given 5,000 rows = %d tuples, %v; want an error", src, len(tuples), err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%T: %d requests, want 1", src, n)
		}
	}
}

// TestClientCapsResponseBody: a body past maxBody fails the query without
// being read to its end, even when it is a well-formed page.
func TestClientCapsResponseBody(t *testing.T) {
	c, calls := hostileSource(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"tuples":[["`))
		chunk := []byte(strings.Repeat("x", 64<<10))
		for n := 0; n <= maxBody; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the client hung up
			}
		}
		w.Write([]byte(`","Camry","2000","1"]],"complete":true}`))
	})
	for _, src := range bareAndResilient(c) {
		calls.Store(0)
		tuples, err := queryWithin(t, src, 1)
		if err == nil || !strings.Contains(err.Error(), "response body over") {
			t.Fatalf("%T: %d MiB page = %d tuples, %v; want the body cap's error", src, maxBody>>20, len(tuples), err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%T: %d requests, want 1", src, n)
		}
	}
}

// TestClientRejectsShortIncompletePage: a source answering every page
// empty but incomplete draws one request, not one per page forever.
func TestClientRejectsShortIncompletePage(t *testing.T) {
	c, calls := hostileSource(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(rows(0, false)))
	})
	for _, src := range bareAndResilient(c) {
		calls.Store(0)
		if _, err := queryWithin(t, src, 0); err == nil || !strings.Contains(err.Error(), "incomplete page of 0 rows") {
			t.Fatalf("%T: endless empty pages: err = %v", src, err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%T: %d requests, want 1", src, n)
		}
		// The same rule holds for a limited query's single page.
		if _, err := queryWithin(t, src, 10); err == nil {
			t.Errorf("%T: an incomplete page of 0 rows for limit 10 was accepted", src)
		}
		if n := calls.Load(); n != 2 {
			t.Errorf("%T: %d requests after the limited query, want 2", src, n)
		}
	}
}

// TestClientCapsPages: a source that sends full pages and never completes
// is read for maxPages pages, then the query fails.
func TestClientCapsPages(t *testing.T) {
	c, calls := hostileSource(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(rows(1, false)))
	})
	c.pageSize = 1 // keep the maxPages round trips small
	for _, src := range bareAndResilient(c) {
		calls.Store(0)
		if _, err := queryWithin(t, src, 0); err == nil || !strings.Contains(err.Error(), "incomplete after 2000 pages") {
			t.Fatalf("%T: endless full pages: err = %v", src, err)
		}
		if n := calls.Load(); n != maxPages {
			t.Errorf("%T: %d requests, want maxPages = %d", src, n, maxPages)
		}
	}
}

// TestResilientEndsOnLongRetryAfter: a 429 asking for an hour's wait ends
// the retry loop at once with the source's error; the source does not set
// the sleep. Retry-After within MaxDelay is still honored (see
// TestClientRetries429WithRetryAfter).
func TestResilientEndsOnLongRetryAfter(t *testing.T) {
	srv, calls := flakyQueryServer(t, http.StatusTooManyRequests, 100, "3600")
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	r := NewResilient(c, ResilientConfig{Retry: RetryPolicy{MaxAttempts: 3}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = r.QueryContext(ctx, toyotaQuery(c), 0)
	if ctx.Err() != nil {
		t.Fatalf("the retry loop slept into the caller's deadline on Retry-After: 3600")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != time.Hour {
		t.Fatalf("err = %v, want the source's 429 carrying Retry-After 1h", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d requests, want 1", n)
	}
}
