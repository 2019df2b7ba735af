package webdb

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Client is a Source that talks to a Server over HTTP. It fetches the
// schema once at construction and re-parses returned string tuples under it.
type Client struct {
	base   string
	http   *http.Client
	schema *relation.Schema

	// PageSize is the page requested when the caller asks for unlimited
	// results: the client walks pages until the server reports the result
	// complete. Default 500.
	PageSize int
}

// NewClient connects to the server at base (e.g. "http://127.0.0.1:8080")
// and fetches its schema.
func NewClient(base string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), http: hc}
	sc, err := c.fetchSchema()
	if err != nil {
		return nil, err
	}
	c.schema = sc
	return c, nil
}

// Schema implements Source.
func (c *Client) Schema() *relation.Schema { return c.schema }

func (c *Client) fetchSchema() (*relation.Schema, error) {
	body, err := c.get(context.Background(), c.base+"/schema")
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
	pageSize := c.PageSize
	if pageSize <= 0 {
		pageSize = 500
	}
	var all []relation.Tuple
	for offset := 0; ; offset += pageSize {
		tuples, complete, err := c.queryPage(ctx, q, pageSize, offset)
		if err != nil {
			return nil, err
		}
		all = append(all, tuples...)
		if complete {
			return all, nil
		}
	}
}

// queryPage fetches one page and reports whether the result was complete.
func (c *Client) queryPage(ctx context.Context, q *query.Query, limit, offset int) ([]relation.Tuple, bool, error) {
	params := url.Values{}
	for _, p := range q.Preds {
		name := c.schema.Attr(p.Attr).Name
		typ := c.schema.Type(p.Attr)
		switch p.Op {
		case query.OpEq:
			params.Set(name, p.Value.Render(typ))
		case query.OpLike:
			return nil, false, fmt.Errorf("webdb client: source cannot evaluate %q; tighten the query first", p.Render(q.Schema))
		case query.OpLess:
			params.Set(name+".lt", p.Value.Render(typ))
		case query.OpGreater:
			params.Set(name+".gt", p.Value.Render(typ))
		case query.OpRange:
			params.Set(name+".lo", p.Value.Render(typ))
			params.Set(name+".hi", p.Hi.Render(typ))
		case query.OpIn:
			alts := make([]string, len(p.Values))
			for i, v := range p.Values {
				alts[i] = v.Render(typ)
			}
			params.Set(name+".in", strings.Join(alts, "|"))
		default:
			return nil, false, fmt.Errorf("webdb client: unsupported operator %v", p.Op)
		}
	}
	if limit > 0 {
		params.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		params.Set("offset", strconv.Itoa(offset))
	}
	body, err := c.get(ctx, c.base+"/query?"+params.Encode())
	if err != nil {
		return nil, false, fmt.Errorf("webdb client: query: %w", err)
	}
	var rj resultJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		return nil, false, fmt.Errorf("webdb client: decode result: %w", err)
	}
	tuples := make([]relation.Tuple, len(rj.Tuples))
	for i, row := range rj.Tuples {
		if len(row) != c.schema.Arity() {
			return nil, false, fmt.Errorf("webdb client: row %d has %d fields, schema has %d", i, len(row), c.schema.Arity())
		}
		t := make(relation.Tuple, len(row))
		for j, field := range row {
			v, err := relation.ParseValue(field, c.schema.Type(j))
			if err != nil {
				return nil, false, fmt.Errorf("webdb client: row %d field %s: %w", i, c.schema.Attr(j).Name, err)
			}
			t[j] = v
		}
		tuples[i] = t
	}
	return tuples, rj.Complete, nil
}

// get performs one HTTP attempt; retrying is Resilient's job. Non-200
// responses surface as *StatusError, Retry-After included, so Resilient
// classifies them. The request carries the caller's X-Request-ID, and —
// when a trace recorder is active — a source_http span plus a traceparent
// header naming it, so the remote source's own traces join this trace
// (each of Resilient's attempts is its own span).
func (c *Client) get(ctx context.Context, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
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
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
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
		return nil, se
	}
	return body, nil
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header
// (the HTTP-date form is ignored: no autonomous-source emulation here
// emits it, and a wrong clock would produce absurd sleeps).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
