package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aimq/internal/afd"
	"aimq/internal/core"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Class", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

func testDB(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	models := []struct {
		model, mk, class string
		basePrice        float64
	}{
		{"Camry", "Toyota", "sedan", 12000},
		{"Corolla", "Toyota", "compact", 9000},
		{"Accord", "Honda", "sedan", 12500},
		{"Civic", "Honda", "compact", 9500},
		{"F150", "Ford", "truck", 22000},
		{"Focus", "Ford", "compact", 9200},
	}
	r := relation.New(carSchema())
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		year := 1995 + rng.Intn(12)
		age := float64(2006 - year)
		price := m.basePrice*(1-0.06*age) + float64(rng.Intn(800))
		r.Append(relation.Tuple{
			relation.Cat(m.mk), relation.Cat(m.model), relation.Cat(m.class),
			relation.Numv(float64(year)), relation.Numv(price),
		})
	}
	return r
}

func learnFrom(t testing.TB, rel *relation.Relation) (*afd.Ordering, *similarity.Estimator) {
	t.Helper()
	res := tane.Miner{Terr: 0.25, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	idx := supertuple.Builder{Buckets: 10}.Build(rel)
	return ord, similarity.New(idx, ord, similarity.Config{})
}

func newService(t testing.TB, rel *relation.Relation, src webdb.Source, cfg Config) *Service {
	t.Helper()
	ord, est := learnFrom(t, rel)
	if src == nil {
		src = webdb.NewLocal(rel)
	}
	if cfg.Logger == nil {
		// Keep test output readable; tests asserting log behavior pass their own.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return New(src, est, &core.Guided{Ord: ord}, cfg)
}

// do issues one request against the service handler and decodes the body.
func do(t *testing.T, s *Service, method, target, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, target, w.Body.String(), err)
	}
	return w.Code, out
}

func TestAnswerMatchesDirectEngine(t *testing.T) {
	rel := testDB(2000, 1)
	ord, est := learnFrom(t, rel)
	svc := New(webdb.NewLocal(rel), est, &core.Guided{Ord: ord}, Config{})

	code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+10000&k=7&tsim=0.5", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["cached"] != false {
		t.Errorf("first answer claims cached")
	}

	direct := core.New(webdb.NewLocal(rel), est, &core.Guided{Ord: ord}, core.Config{K: 7, Tsim: 0.5})
	q, err := query.Parse(rel.Schema(), "Model like Camry, Price like 10000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := direct.Answer(q)
	if err != nil {
		t.Fatal(err)
	}

	rows := out["answers"].([]any)
	if len(rows) != len(res.Answers) {
		t.Fatalf("service returned %d answers, direct engine %d", len(rows), len(res.Answers))
	}
	sc := rel.Schema()
	for i, raw := range rows {
		row := raw.(map[string]any)
		if sim := row["sim"].(float64); math.Abs(sim-res.Answers[i].Sim) > 1e-9 {
			t.Errorf("row %d sim %v, direct %v", i, sim, res.Answers[i].Sim)
		}
		vals := row["values"].([]any)
		for j, v := range vals {
			if want := res.Answers[i].Tuple[j].Render(sc.Type(j)); v.(string) != want {
				t.Errorf("row %d col %d = %q, direct %q", i, j, v, want)
			}
		}
	}
}

func TestCacheHitPath(t *testing.T) {
	svc := newService(t, testDB(1500, 2), nil, Config{})
	code, first := do(t, svc, "GET", "/answer?q=Model+like+Civic&k=5", "")
	if code != http.StatusOK || first["cached"] != false {
		t.Fatalf("cold answer: status %d cached %v", code, first["cached"])
	}
	code, second := do(t, svc, "GET", "/answer?q=Model+like+Civic&k=5", "")
	if code != http.StatusOK || second["cached"] != true {
		t.Fatalf("warm answer: status %d cached %v", code, second["cached"])
	}
	if fmt.Sprint(first["answers"]) != fmt.Sprint(second["answers"]) {
		t.Errorf("cache returned different answers")
	}
	hits, misses, _ := svc.Metrics()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// POST body form of the same query also hits.
	code, third := do(t, svc, "POST", "/answer", `{"query":"Model like Civic","k":5}`)
	if code != http.StatusOK || third["cached"] != true {
		t.Errorf("POST of identical query missed the cache: %d %v", code, third["cached"])
	}
}

func TestCacheKeyNormalizesPredicateOrder(t *testing.T) {
	svc := newService(t, testDB(1500, 3), nil, Config{})
	code, _ := do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+9000", "")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	code, out := do(t, svc, "GET", "/answer?q=Price+like+9000,+Model+like+Camry", "")
	if code != http.StatusOK || out["cached"] != true {
		t.Errorf("reordered predicates missed the cache: %d %v", code, out["cached"])
	}
	// Different k or tsim must NOT share an entry.
	code, out = do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+like+9000&k=3", "")
	if code != http.StatusOK || out["cached"] != false {
		t.Errorf("different k reused the cache: %v", out["cached"])
	}
	// Two predicates on one attribute share an entry in either order.
	do(t, svc, "GET", "/answer?q=Model+like+Camry,+Price+>+5000,+Price+<+15000", "")
	code, out = do(t, svc, "GET", "/answer?q=Price+<+15000,+Model+like+Camry,+Price+>+5000", "")
	if code != http.StatusOK || out["cached"] != true {
		t.Errorf("reordered same-attribute predicates missed the cache: %d %v", code, out["cached"])
	}
	// A categorical value may contain " & ": this one predicate on Make
	// must not share an entry with the two predicates it spells out.
	code, out = do(t, svc, "GET", "/answer?q=Make+like+Toyota+%26+Model+like+Camry&k=5", "")
	if code != http.StatusOK || out["cached"] != false {
		t.Fatalf("one-predicate query: %d %v", code, out["cached"])
	}
	code, out = do(t, svc, "GET", "/answer?q=Make+like+Toyota,+Model+like+Camry&k=5", "")
	if code != http.StatusOK || out["cached"] != false {
		t.Errorf("two-predicate query served the one-predicate query's entry: %d %v", code, out["cached"])
	}
}

// countingSource counts and slows source queries so concurrent identical
// requests overlap in time.
type countingSource struct {
	src     webdb.Source
	delay   time.Duration
	queries atomic.Int64
}

func (c *countingSource) Schema() *relation.Schema { return c.src.Schema() }

func (c *countingSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	c.queries.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.src.QueryContext(ctx, q, limit)
}

func TestConcurrentIdenticalQueriesSingleFlight(t *testing.T) {
	rel := testDB(1500, 4)
	src := &countingSource{src: webdb.NewLocal(rel), delay: 2 * time.Millisecond}
	svc := newService(t, rel, src, Config{})

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	works := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest("GET", "/answer?q=Model+like+Accord&k=5", nil)
			w := httptest.NewRecorder()
			svc.ServeHTTP(w, r)
			codes[i] = w.Code
			var out struct {
				Work struct {
					QueriesIssued float64 `json:"queries_issued"`
				} `json:"work"`
			}
			_ = json.Unmarshal(w.Body.Bytes(), &out)
			works[i] = out.Work.QueriesIssued
		}(i)
	}
	wg.Wait()

	oneRun := works[0]
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if works[i] != oneRun {
			t.Errorf("request %d reports %v queries, leader reports %v", i, works[i], oneRun)
		}
	}
	// The decisive check: the source saw exactly one relaxation run.
	if got := src.queries.Load(); got != int64(oneRun) {
		t.Errorf("source saw %d queries; single-flight should have issued %v", got, oneRun)
	}
	// Every non-leader either joined the flight or hit the cache.
	hits, misses, _ := svc.Metrics()
	if hits+misses != n {
		t.Errorf("hits+misses = %d, want %d", hits+misses, n)
	}
	if misses < 1 {
		t.Errorf("no cache miss recorded for the leader")
	}
}

func TestDeadlineReturnsContextError(t *testing.T) {
	rel := testDB(2000, 5)
	// 5ms per source query: a 1ms deadline can never finish relaxation.
	src := &countingSource{src: webdb.NewLocal(rel), delay: 5 * time.Millisecond}
	svc := newService(t, rel, src, Config{})

	start := time.Now()
	code, out := do(t, svc, "GET", "/answer?q=Model+like+Camry&timeout=1ms", "")
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %v", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "context deadline exceeded") {
		t.Errorf("error = %q, want context deadline", msg)
	}
	if elapsed > time.Second {
		t.Errorf("1ms-deadline request took %v", elapsed)
	}
	if got := src.queries.Load(); got > 3 {
		t.Errorf("deadline run still issued %d source queries", got)
	}
}

func TestBadRequests(t *testing.T) {
	svc := newService(t, testDB(800, 6), nil, Config{})
	cases := []struct {
		name, method, target, body string
	}{
		{"missing q", "GET", "/answer", ""},
		{"parse error", "GET", "/answer?q=NoSuchAttr+like+x", ""},
		{"bad k", "GET", "/answer?q=Model+like+Camry&k=abc", ""},
		{"negative k", "GET", "/answer?q=Model+like+Camry&k=-2", ""},
		{"bad tsim", "GET", "/answer?q=Model+like+Camry&tsim=1.5", ""},
		{"bad timeout", "GET", "/answer?q=Model+like+Camry&timeout=soon", ""},
		{"bad body", "POST", "/answer", "{"},
		{"empty body query", "POST", "/answer", `{"query":"  "}`},
	}
	for _, c := range cases {
		code, out := do(t, svc, c.method, c.target, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", c.name, code, out)
		}
		if msg, _ := out["error"].(string); msg == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

// TestAnswerBodyLimit drives POST /answer through the real router over
// HTTP: a body past maxAnswerBody is refused with 413 and the usual error
// body, counted as a rejected request, while a normal body still answers.
func TestAnswerBodyLimit(t *testing.T) {
	svc := newService(t, testDB(800, 6), nil, Config{})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/answer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("bad JSON response: %v", err)
		}
		return resp.StatusCode, out
	}

	rejected := svc.met.requestsErr.Load()
	huge := `{"query":"Model like ` + strings.Repeat("x", maxAnswerBody) + `"}`
	code, out := post(huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "too large") {
		t.Errorf("oversized body: error %q", msg)
	}
	if got := svc.met.requestsErr.Load(); got != rejected+1 {
		t.Errorf("rejected requests %d, want %d", got, rejected+1)
	}

	code, out = post(`{"query":"Model like Civic","k":3}`)
	if code != http.StatusOK {
		t.Fatalf("normal body: status %d (%v)", code, out)
	}
	if rows, _ := out["answers"].([]any); len(rows) == 0 {
		t.Errorf("normal body: no answers in %v", out)
	}
}

func TestHealthz(t *testing.T) {
	svc := newService(t, testDB(800, 7), nil, Config{})
	code, out := do(t, svc, "GET", "/healthz", "")
	if code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}
}

func TestMetricsEndpointParses(t *testing.T) {
	svc := newService(t, testDB(1500, 8), nil, Config{})
	for i := 0; i < 3; i++ {
		do(t, svc, "GET", "/answer?q=Model+like+Focus&k=4", "")
	}
	do(t, svc, "GET", "/answer?q=NoSuchAttr+like+x", "")

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := w.Body.String()
	values := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[fields[0]] = v
	}
	checks := map[string]float64{
		`aimq_service_requests_total{status="ok"}`:    3,
		`aimq_service_requests_total{status="error"}`: 1,
		"aimq_service_cache_hits_total":               2,
		"aimq_service_cache_misses_total":             1,
		"aimq_service_answer_latency_seconds_count":   3,
	}
	for name, want := range checks {
		if got, ok := values[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if values["aimq_service_relaxation_queries_total"] <= 0 {
		t.Errorf("relaxation_queries_total not reported")
	}
	// Histogram buckets are cumulative and end at +Inf == count.
	if values[`aimq_service_answer_latency_seconds_bucket{le="+Inf"}`] != values["aimq_service_answer_latency_seconds_count"] {
		t.Errorf("+Inf bucket != count")
	}
}

// gateSource signals when the first query starts, then holds it for delay —
// used to get a request verifiably in flight before shutdown begins.
type gateSource struct {
	src     webdb.Source
	started chan struct{}
	once    sync.Once
	delay   time.Duration
}

func (g *gateSource) Schema() *relation.Schema { return g.src.Schema() }

func (g *gateSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	g.once.Do(func() { close(g.started) })
	time.Sleep(g.delay)
	return g.src.QueryContext(ctx, q, limit)
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	rel := testDB(1200, 9)
	gate := &gateSource{src: webdb.NewLocal(rel), started: make(chan struct{}), delay: 20 * time.Millisecond}
	svc := newService(t, rel, gate, Config{Engine: core.Config{MaxQueriesPerBase: 3, BaseLimit: 2}})

	srv, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	type result struct {
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/answer?q=Model+like+F150&k=3")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		resc <- result{code: resp.StatusCode}
	}()

	<-gate.started // the request is now mid-relaxation
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-resc
	if res.err != nil || res.code != http.StatusOK {
		t.Errorf("in-flight request not drained: code=%d err=%v", res.code, res.err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after graceful shutdown", err)
	}
	// The port is closed: new connections are refused.
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Errorf("server still accepting connections after shutdown")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	a, b, d := &answerPayload{Query: "a"}, &answerPayload{Query: "b"}, &answerPayload{Query: "d"}
	c.Add("a", a)
	c.Add("b", b)
	if _, _, ok := c.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	c.Add("d", d) // evicts b (least recently used)
	if _, _, ok := c.Get("b"); ok {
		t.Errorf("b survived eviction")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Errorf("a evicted despite recent use")
	}
	if _, _, ok := c.Get("d"); !ok {
		t.Errorf("d missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	svc := newService(t, testDB(800, 10), nil, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx, "127.0.0.1:0", time.Second) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
