package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/obs"
)

// answerBody is the part of a /answer response the benchmark checks.
type answerBody struct {
	K       int         `json:"k"`
	Answers []answerRow `json:"answers"`
	Work    struct {
		QueriesIssued   int `json:"queries_issued"`
		TuplesExtracted int `json:"tuples_extracted"`
		TuplesQualified int `json:"tuples_qualified"`
	} `json:"work"`
	Cached bool `json:"cached"`
	Stale  bool `json:"stale"`
	Shared bool `json:"shared"`
}

type answerRow struct {
	Values []string `json:"values"`
	Sim    float64  `json:"sim"`
}

// record is one measured request. Times are offsets from the window start.
type record struct {
	idx   int
	warm  bool // a warm-up request, answered before the window
	query string
	due   time.Duration // open loop: when the request was due; closed loop: when it was picked
	// start is when the latency clock started: due, unless the request was
	// not held back at all and the generator's own timer woke after due.
	start time.Duration
	sent  time.Duration
	done  time.Duration
	// failed marks a non-200 status, a transport error or a malformed body;
	// these count into failed_share.
	failed bool
	status int
	bytes  int
	body   *answerBody
	// violation, when set, is a wrong answer: it fails the run.
	violation string
}

// id is the X-Request-ID the request carries.
func (r *record) id() string {
	if r.warm {
		return "w" + strconv.Itoa(r.idx)
	}
	return "a" + strconv.Itoa(r.idx)
}

func (r *record) latency() time.Duration { return r.done - r.start }

// loadClient sends /answer requests over loopback HTTP through at most
// conns connections.
type loadClient struct {
	hc     *http.Client
	base   string
	origin time.Time
	arity  int
	tr     *tracer // nil on untraced runs
	// distinct is set when every request carries its own key: each response
	// must then be computed, neither cached nor shared by single-flight.
	distinct bool
}

func newLoadClient(base string, conns, arity int, tr *tracer) *loadClient {
	return &loadClient{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		base:  base,
		arity: arity,
		tr:    tr,
	}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// send issues one request, due at due with its latency clock started at
// start, and fills in the record.
func (c *loadClient) send(rec *record, due, start time.Time) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/answer?q="+url.QueryEscape(rec.query), nil)
	if err != nil {
		rec.failed = true
		return
	}
	id := rec.id()
	req.Header.Set(obs.RequestIDHeader, id)
	sent := time.Now()
	var body []byte
	resp, err := c.hc.Do(req)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	done := time.Now()
	rec.due, rec.start = due.Sub(c.origin), start.Sub(c.origin)
	rec.sent, rec.done = sent.Sub(c.origin), done.Sub(c.origin)
	rec.bytes = len(body)
	if c.tr != nil {
		c.tr.add(span{req: id, layer: lRequest, start: c.tr.at(start), end: c.tr.at(done)})
		c.tr.add(span{req: id, layer: lHTTP, start: c.tr.at(sent), end: c.tr.at(done)})
	}
	if err != nil || rec.status != http.StatusOK {
		rec.failed = true
		return
	}
	var ab answerBody
	if err := json.Unmarshal(body, &ab); err != nil || ab.Answers == nil {
		rec.failed = true
		return
	}
	rec.body = &ab
	rec.violation = c.checkBody(&ab)
}

// checkBody applies the per-response correctness rules.
func (c *loadClient) checkBody(ab *answerBody) string {
	if len(ab.Answers) > ab.K || ab.K != 10 {
		return fmt.Sprintf("%d answers for k=%d (want k=10)", len(ab.Answers), ab.K)
	}
	for i, a := range ab.Answers {
		if len(a.Values) != c.arity {
			return fmt.Sprintf("answer %d has %d values, schema has %d", i, len(a.Values), c.arity)
		}
		if i > 0 && a.Sim > ab.Answers[i-1].Sim {
			return fmt.Sprintf("answers out of Sim order at rank %d", i+1)
		}
	}
	if ab.Stale {
		return "stale answer without a cache TTL"
	}
	if c.distinct && (ab.Cached || ab.Shared) {
		return fmt.Sprintf("cached=%t shared=%t for a distinct key", ab.Cached, ab.Shared)
	}
	return ""
}

// closedLoop runs conns clients, each sending its next query as soon as the
// previous answer arrives, until the window closes and at least minCount
// queries were sent. Queries are taken in stream order, so the records are
// always a prefix of the stream.
func (c *loadClient) closedLoop(queries []string, warm bool, conns, minCount int, window time.Duration) []*record {
	recs := make([]*record, len(queries))
	var next atomic.Int64
	deadline := c.origin.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(queries) || (j >= minCount && !time.Now().Before(deadline)) {
					return
				}
				rec := &record{idx: j, warm: warm, query: queries[j]}
				now := time.Now()
				c.send(rec, now, now)
				recs[j] = rec
			}
		}()
	}
	wg.Wait()
	n := 0
	for n < len(recs) && recs[n] != nil {
		n++
	}
	return recs[:n]
}

// openLoop sends draws[j] of the pool at origin + j/rate, with at most
// conns requests in flight: a request due while every connection is busy
// waits, and its latency counts from when it was due.
func (c *loadClient) openLoop(pool []string, draws []int, rate float64, conns int) []*record {
	type item struct {
		j          int
		due, start time.Time
	}
	recs := make([]*record, len(draws))
	ch := make(chan item)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				rec := &record{idx: it.j, query: pool[draws[it.j]]}
				c.send(rec, it.due, it.start)
				recs[it.j] = rec
			}
		}()
	}
	for j := range draws {
		due := c.origin.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		start := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			// The sleep wakes up to about a millisecond late. A request
			// nothing held back starts its clock at the wake-up, so the
			// generator's timer is not charged to the service; one that waited
			// for a busy connection (the loop was behind) keeps its due time.
			start = time.Now()
		}
		ch <- item{j, due, start}
	}
	close(ch)
	wg.Wait()
	return recs
}

// conns is the client connection count: one per CPU.
func conns() int { return runtime.NumCPU() }
