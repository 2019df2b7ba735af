package webdb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

func testRel() *relation.Relation {
	s := carSchema()
	r := relation.New(s)
	rows := [][4]any{
		{"Toyota", "Camry", 2000.0, 10000.0},
		{"Toyota", "Corolla", 2001.0, 8000.0},
		{"Honda", "Accord", 2000.0, 10500.0},
		{"Honda", "Civic", 1999.0, 7000.0},
		{"Ford", "Focus", 2002.0, 15000.0},
	}
	for _, row := range rows {
		r.Append(relation.Tuple{
			relation.Cat(row[0].(string)),
			relation.Cat(row[1].(string)),
			relation.Numv(row[2].(float64)),
			relation.Numv(row[3].(float64)),
		})
	}
	return r
}

func TestLocalSource(t *testing.T) {
	src := NewLocal(testRel())
	q := query.New(src.Schema()).Where("Make", query.OpEq, relation.Cat("Toyota"))
	got, err := src.QueryContext(context.Background(), q, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("local query = %d tuples, err %v", len(got), err)
	}
	if got2, err := src.QueryContext(context.Background(), q, 1); err != nil || len(got2) != 1 {
		t.Errorf("limit ignored: %d, %v", len(got2), err)
	}
}

func TestLocalSchemaMismatch(t *testing.T) {
	src := NewLocal(testRel())
	other := relation.MustSchema(relation.Attribute{Name: "X", Type: relation.Numeric})
	q := query.New(other).Where("X", query.OpEq, relation.Numv(1))
	if _, err := src.QueryContext(context.Background(), q, 0); err == nil {
		t.Errorf("mismatched schema accepted")
	}
}

func TestProbeCounter(t *testing.T) {
	pc := &ProbeCounter{Src: NewLocal(testRel())}
	q := query.New(pc.Schema()).Where("Make", query.OpEq, relation.Cat("Honda"))
	if _, err := pc.QueryContext(context.Background(), q, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.QueryContext(context.Background(), q, 1); err != nil {
		t.Fatal(err)
	}
	if pc.Queries() != 2 || pc.Tuples() != 3 {
		t.Errorf("counter = %d queries, %d tuples", pc.Queries(), pc.Tuples())
	}
	pc.Reset()
	if pc.Queries() != 0 || pc.Tuples() != 0 {
		t.Errorf("Reset failed")
	}
}

func newTestClient(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(NewServer(NewLocal(testRel())))
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, srv
}

func TestHTTPRoundTrip(t *testing.T) {
	c, _ := newTestClient(t)
	if c.Schema().Arity() != 4 || c.Schema().Attr(2).Type != relation.Numeric {
		t.Fatalf("client schema = %s", c.Schema())
	}
	q := query.New(c.Schema()).
		Where("Make", query.OpEq, relation.Cat("Toyota")).
		Where("Price", query.OpLess, relation.Numv(9000))
	got, err := c.QueryContext(context.Background(), q, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(got) != 1 || got[0][1].Str != "Corolla" {
		t.Errorf("remote query = %v", got)
	}
}

func TestHTTPRangeAndGreater(t *testing.T) {
	c, _ := newTestClient(t)
	q := query.New(c.Schema()).WhereRange("Year", 2000, 2001)
	got, err := c.QueryContext(context.Background(), q, 0)
	if err != nil || len(got) != 3 {
		t.Errorf("range query = %d tuples, %v", len(got), err)
	}
	q2 := query.New(c.Schema()).Where("Price", query.OpGreater, relation.Numv(10000))
	got2, err := c.QueryContext(context.Background(), q2, 0)
	if err != nil || len(got2) != 2 {
		t.Errorf("gt query = %d tuples, %v", len(got2), err)
	}
}

func TestHTTPLimit(t *testing.T) {
	c, _ := newTestClient(t)
	got, err := c.QueryContext(context.Background(), query.New(c.Schema()), 2)
	if err != nil || len(got) != 2 {
		t.Errorf("limit query = %d tuples, %v", len(got), err)
	}
}

func TestClientRejectsLike(t *testing.T) {
	c, _ := newTestClient(t)
	q := query.New(c.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	if _, err := c.QueryContext(context.Background(), q, 0); err == nil {
		t.Errorf("client sent a like predicate to a boolean source")
	}
	// Tightened version must work.
	if got, err := c.QueryContext(context.Background(), q.ToPrecise(), 0); err != nil || len(got) != 1 {
		t.Errorf("tightened query = %d tuples, %v", len(got), err)
	}
}

func TestServerBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testRel())))
	defer srv.Close()
	bad := []string{
		"/query?Ghost=1",
		"/query?limit=-1",
		"/query?limit=abc",
		"/query?Year=notnum",
		"/query?Make.lt=Z",
		"/query?Year.lo=1999", // missing .hi
		"/query?Year.weird=1",
	}
	for _, path := range bad {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testRel())))
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := c.QueryContext(context.Background(), query.New(c.Schema()), 1); err == nil {
		t.Errorf("query against dead server succeeded")
	}
	if _, err := NewClient(srv.URL, srv.Client()); err == nil {
		t.Errorf("NewClient against dead server succeeded")
	}
}

// TestClientRetries: the client makes one attempt per request, so a
// hijacked connection fails it; Resilient's retry recovers the request.
func TestClientRetries(t *testing.T) {
	inner := httptest.NewServer(NewServer(NewLocal(testRel())))
	defer inner.Close()
	// A proxy that fails the first attempt of every second request.
	fails := 0
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails == 0 {
			fails++
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // abrupt transport failure
			}
			return
		}
		fails = 0
		resp, err := inner.Client().Get(inner.URL + r.URL.String())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
	}))
	defer proxy.Close()

	c, err := NewClient(inner.URL, inner.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.base = proxy.URL
	c.http = proxy.Client()
	if c.query, err = http.NewRequest(http.MethodGet, proxy.URL+"/query?", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryContext(context.Background(), query.New(c.Schema()), 1); err == nil {
		t.Fatalf("flaky proxy did not fail the client's single attempt")
	}
	r := NewResilient(c, ResilientConfig{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}})
	if _, err := r.QueryContext(context.Background(), query.New(c.Schema()), 1); err != nil {
		t.Errorf("retry through Resilient failed: %v", err)
	}
}

func TestServerPaging(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testRel())))
	defer srv.Close()
	getPage := func(params string) resultJSON {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/query?" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %q", resp.StatusCode, params)
		}
		var rj resultJSON
		if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
			t.Fatal(err)
		}
		return rj
	}
	// 5 rows total: page of 2 at offsets 0, 2, 4.
	p0 := getPage("limit=2&offset=0")
	p1 := getPage("limit=2&offset=2")
	p2 := getPage("limit=2&offset=4")
	if len(p0.Tuples) != 2 || p0.Complete {
		t.Errorf("page 0 = %d rows, complete %v", len(p0.Tuples), p0.Complete)
	}
	if len(p1.Tuples) != 2 || p1.Complete {
		t.Errorf("page 1 = %d rows, complete %v", len(p1.Tuples), p1.Complete)
	}
	if len(p2.Tuples) != 1 || !p2.Complete {
		t.Errorf("page 2 = %d rows, complete %v", len(p2.Tuples), p2.Complete)
	}
	// Pages are disjoint and cover everything.
	seen := map[string]bool{}
	for _, p := range []resultJSON{p0, p1, p2} {
		for _, row := range p.Tuples {
			k := strings.Join(row, "|")
			if seen[k] {
				t.Errorf("row %q appeared on two pages", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != 5 {
		t.Errorf("pages covered %d of 5 rows", len(seen))
	}
	// Offset beyond the result is an empty complete page.
	beyond := getPage("limit=2&offset=99")
	if len(beyond.Tuples) != 0 || !beyond.Complete {
		t.Errorf("offset beyond end = %d rows, complete %v", len(beyond.Tuples), beyond.Complete)
	}
	// Bad offset is a 400.
	resp, err := srv.Client().Get(srv.URL + "/query?offset=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative offset status = %d", resp.StatusCode)
	}
}

func TestClientAutoPagination(t *testing.T) {
	// A bigger relation so pagination actually kicks in.
	s := carSchema()
	rel := relation.New(s)
	for i := 0; i < 57; i++ {
		rel.Append(relation.Tuple{
			relation.Cat("Toyota"), relation.Cat("Camry"),
			relation.Numv(float64(1990 + i%15)), relation.Numv(float64(5000 + i)),
		})
	}
	srv := httptest.NewServer(NewServer(NewLocal(rel)))
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	c.pageSize = 10 // force several round trips
	got, err := c.QueryContext(context.Background(), query.New(c.Schema()), 0)
	if err != nil {
		t.Fatalf("unlimited query: %v", err)
	}
	if len(got) != 57 {
		t.Fatalf("auto-pagination fetched %d of 57", len(got))
	}
	// No duplicates across pages.
	seen := map[float64]bool{}
	for _, tp := range got {
		if seen[tp[3].Num] {
			t.Fatalf("duplicate tuple price %v", tp[3].Num)
		}
		seen[tp[3].Num] = true
	}
	// An explicit limit is a single page.
	few, err := c.QueryContext(context.Background(), query.New(c.Schema()), 7)
	if err != nil || len(few) != 7 {
		t.Errorf("limited query = %d rows, %v", len(few), err)
	}
}

func TestHTTPOpIn(t *testing.T) {
	c, _ := newTestClient(t)
	q := query.New(c.Schema()).WhereIn("Make",
		relation.Cat("Toyota"), relation.Cat("Ford"))
	got, err := c.QueryContext(context.Background(), q, 0)
	if err != nil {
		t.Fatalf("in query over HTTP: %v", err)
	}
	if len(got) != 3 { // 2 Toyotas + 1 Ford
		t.Errorf("in query = %d tuples", len(got))
	}
	for _, tp := range got {
		if mk := tp[0].Str; mk != "Toyota" && mk != "Ford" {
			t.Errorf("in query returned %s", mk)
		}
	}
}

func TestServerEmptyInList(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testRel())))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/query?Make.in=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty in-list status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	counted := &ProbeCounter{Src: NewLocal(testRel())}
	srv := httptest.NewServer(NewServer(counted))
	defer srv.Close()
	// Two queries, then read stats.
	for i := 0; i < 2; i++ {
		resp, err := srv.Client().Get(srv.URL + "/query?Make=Toyota")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries int64 `json:"queries"`
		Tuples  int64 `json:"tuples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 2 || stats.Tuples != 4 {
		t.Errorf("stats = %+v", stats)
	}
	// No counter, no endpoint.
	plain := httptest.NewServer(NewServer(NewLocal(testRel())))
	defer plain.Close()
	r2, err := plain.Client().Get(plain.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode == http.StatusOK {
		t.Errorf("uncounted server exposed /stats")
	}
}

// TestTracedServerBoundsRequestID: a traced /query replaces a 64 KiB
// X-Request-ID with a minted one, in the response and as the retained
// trace's ID, and keeps a normal one. The trace and its probe carry the
// same rendering of the query.
func TestTracedServerBoundsRequestID(t *testing.T) {
	srv := NewServer(NewLocal(testRel()))
	ring := obs.NewRing(8)
	srv.EnableTracing(ring)
	for _, c := range []struct{ sent, want string }{
		{strings.Repeat("h", 64<<10), ""},
		{"mediator-1", "mediator-1"},
	} {
		r := httptest.NewRequest("GET", "/query?Model=Camry&Make=Toyota", nil)
		r.Header.Set(obs.RequestIDHeader, c.sent)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		id := w.Header().Get(obs.RequestIDHeader)
		switch {
		case c.want != "" && id != c.want:
			t.Errorf("normal ID replaced by %q", id)
		case c.want == "" && (id == c.sent || id == "" || len(id) > 128):
			t.Errorf("%d-byte ID echoed as %d bytes, want a minted ID", len(c.sent), len(id))
		}
		recent, _ := ring.Snapshot()
		tr := recent[0]
		if tr.ID != id {
			t.Errorf("ring keeps trace ID of %d bytes, want the response's %q", len(tr.ID), id)
		}
		if want := "Q(Make = Toyota ∧ Model = Camry)"; tr.Query != want || len(tr.BaseProbe) != 1 || tr.BaseProbe[0].Query != want {
			t.Errorf("trace query %q, probes %+v; want both %q", tr.Query, tr.BaseProbe, want)
		}
	}
}
