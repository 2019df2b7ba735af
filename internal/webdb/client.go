package webdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Client is a Source that talks to a Server over HTTP. It fetches the
// schema once at construction and re-parses returned string tuples under it.
//
// The source is autonomous, so the client bounds what it believes: a page
// holds at most the rows it asked for, an incomplete page holds exactly
// that many, a body is read up to maxBody bytes, and an unlimited query
// reads at most maxPages pages.
type Client struct {
	base   string
	http   *http.Client
	schema *relation.Schema
	// query is a GET of base+"/query?", cloned for every call with the
	// call's raw query, so no call parses a URL; form holds the schema's
	// form keys, escaped and ranked once.
	query *http.Request
	form  *formKeys

	// pageSize is the page requested when the caller asks for unlimited
	// results: the client walks pages until the server reports the result
	// complete.
	pageSize int
}

const (
	// defaultPageSize is the page an unlimited query is read in.
	defaultPageSize = 500
	// maxPages caps the pages of one unlimited query: a million rows at
	// the default page size, more than any relation this repository
	// generates holds.
	maxPages = 2000
	// maxBody caps the bytes read from one response. A 500-row CensusDB
	// page is about 90 KiB.
	maxBody = 16 << 20
)

// NewClient connects to the server at base (e.g. "http://127.0.0.1:8080")
// and fetches its schema.
func NewClient(base string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), http: hc, pageSize: defaultPageSize}
	req, err := http.NewRequest(http.MethodGet, c.base+"/query?", nil)
	if err != nil {
		return nil, fmt.Errorf("webdb client: %w", err)
	}
	c.query = req
	sc, err := c.fetchSchema()
	if err != nil {
		return nil, err
	}
	c.schema = sc
	c.form = newFormKeys(sc)
	return c, nil
}

// Schema implements Source.
func (c *Client) Schema() *relation.Schema { return c.schema }

func (c *Client) fetchSchema() (*relation.Schema, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/schema", nil)
	if err != nil {
		return nil, fmt.Errorf("webdb client: fetch schema: %w", err)
	}
	body, err := c.do(req, nil)
	if err != nil {
		return nil, fmt.Errorf("webdb client: fetch schema: %w", err)
	}
	var sj schemaJSON
	if err := json.Unmarshal(body, &sj); err != nil {
		return nil, fmt.Errorf("webdb client: decode schema: %w", err)
	}
	attrs := make([]relation.Attribute, len(sj.Attributes))
	for i, a := range sj.Attributes {
		var t relation.AttrType
		switch a.Type {
		case "categorical":
			t = relation.Categorical
		case "numeric":
			t = relation.Numeric
		default:
			return nil, fmt.Errorf("webdb client: unknown attribute type %q", a.Type)
		}
		attrs[i] = relation.Attribute{Name: a.Name, Type: t}
	}
	return relation.NewSchema(attrs...)
}

// Query implements Source by encoding the query as form parameters.
// Queries containing like predicates are rejected: the remote boolean
// interface cannot express them (tighten with ToPrecise first). A
// non-positive limit fetches everything, walking the server's pages.
func (c *Client) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	return c.QueryContext(context.Background(), q, limit)
}

// QueryContext implements ContextSource: the context propagates into every
// HTTP request, so a cancelled caller aborts the wire transfer rather than
// waiting out a slow autonomous source.
func (c *Client) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	if limit > 0 {
		tuples, _, err := c.queryPage(ctx, q, limit, 0)
		return tuples, err
	}
	var all []relation.Tuple
	for page := 0; page < maxPages; page++ {
		tuples, complete, err := c.queryPage(ctx, q, c.pageSize, page*c.pageSize)
		if err != nil {
			return nil, err
		}
		all = append(all, tuples...)
		if complete {
			return all, nil
		}
	}
	return nil, fmt.Errorf("webdb client: query %s: source still incomplete after %d pages of %d rows", q, maxPages, c.pageSize)
}

// queryPage fetches one page of at most limit rows and reports whether the
// result was complete. A page with more rows than limit, or an incomplete
// one with fewer, is the source's error, not data.
func (c *Client) queryPage(ctx context.Context, q *query.Query, limit, offset int) ([]relation.Tuple, bool, error) {
	buf := getBuf()
	defer putBuf(buf)
	form, err := c.form.appendForm((*buf)[:0], q, limit, offset)
	if err != nil {
		return nil, false, err
	}
	req := c.query.WithContext(ctx)
	u := *req.URL
	u.RawQuery = string(form)
	req.URL = &u
	req.Header = make(http.Header)
	body, err := c.do(req, form[:0])
	*buf = body
	if err != nil {
		return nil, false, fmt.Errorf("webdb client: query: %w", err)
	}
	tuples, complete, err := decodeResult(c.schema, body)
	if err != nil {
		return nil, false, fmt.Errorf("webdb client: decode result: %w", err)
	}
	switch n := len(tuples); {
	case n > limit:
		return nil, false, fmt.Errorf("webdb client: source returned %d rows for a page of %d", n, limit)
	case !complete && n < limit:
		return nil, false, fmt.Errorf("webdb client: source returned an incomplete page of %d rows, page size %d", n, limit)
	}
	return tuples, complete, nil
}

// do performs one HTTP attempt and reads the body into dst, up to maxBody
// bytes; retrying is Resilient's job. Non-200 responses surface as
// *StatusError, Retry-After included, so Resilient classifies them. The
// request carries the caller's X-Request-ID, and — when a trace recorder
// is active — a source_http span plus a traceparent header naming it, so
// the remote source's own traces join this trace (each of Resilient's
// attempts is its own span).
func (c *Client) do(req *http.Request, dst []byte) ([]byte, error) {
	ctx := req.Context()
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	if rec := obs.FromContext(ctx); rec.Active() {
		sp := rec.StartSpan("source_http")
		defer sp.End()
		req.Header.Set(obs.TraceparentHeader, rec.Traceparent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return dst, err
	}
	body, err := readBody(resp.Body, dst)
	resp.Body.Close()
	if err != nil {
		return body, err
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{
			Code:       resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		var ej errorJSON
		if json.Unmarshal(body, &ej) == nil && ej.Error != "" {
			se.Msg = ej.Error
		}
		return body, se
	}
	return body, nil
}

// readBody appends r's bytes to dst, failing once they pass maxBody.
func readBody(r io.Reader, dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), start+maxBody+1)])
		dst = dst[:len(dst)+n]
		if len(dst)-start > maxBody {
			return dst, fmt.Errorf("response body over %d bytes", maxBody)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header
// (the HTTP-date form is ignored: no autonomous-source emulation here
// emits it, and a wrong clock would produce absurd sleeps).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if secs < 0 || (err != nil && !errors.Is(err, strconv.ErrRange)) {
		return 0
	}
	if secs > int64(math.MaxInt64/time.Second) {
		return math.MaxInt64 // longer than any MaxDelay; seconds would overflow
	}
	return time.Duration(secs) * time.Second
}
