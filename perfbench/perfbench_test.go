package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small returns a scaled-down copy of a workload, quick enough for tests.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	c := *w
	c.tuples = 3000
	c.countPrefix = 12
	c.checkEvery = 3
	c.corePass = 4
	return &c
}

// serve answers queries one at a time over HTTP against a fresh stack and
// returns the decoded responses.
func serve(t *testing.T, w *workload, wd *world, queries []string, tr *tracer) ([]*record, *stack) {
	t.Helper()
	st, err := buildStack(w, wd, queries, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	lc := newLoadClient(st.url, 1, st.res.Schema().Arity(), tr)
	defer lc.close()
	lc.origin = time.Now()
	recs := lc.closedLoop(queries, false, 1, len(queries), 0)
	for _, r := range recs {
		if r.failed || r.violation != "" {
			t.Fatalf("request %s (%s): status %d %s", r.id(), r.query, r.status, r.violation)
		}
	}
	return recs, st
}

// TestTracedRunMatchesUntraced: the timing wrappers must not change what
// the program answers or how much work it does, on a local and a remote
// source.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"car-cold", "census-remote", "car-hot-swap"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			o := options{seed: 3, seconds: 1, out: t.TempDir()}
			wd, rel, err := prepareWorld(w, o)
			if err != nil {
				t.Fatal(err)
			}
			p := w.makePlan(rel, o.seed, o.seconds)
			queries := p.stream[:4]
			plain, _ := serve(t, w, wd, queries, nil)
			tr := newTracer()
			traced, st := serve(t, w, wd, queries, tr)
			for i := range plain {
				a, b := plain[i].body, traced[i].body
				if !reflect.DeepEqual(a.Answers, b.Answers) || a.Work != b.Work || a.Cached != b.Cached {
					t.Errorf("%s: traced answer differs:\nuntraced %+v\ntraced   %+v", queries[i], a, b)
				}
			}
			trees := tr.buildTrees()
			root := trees[traced[0].id()]
			if root == nil || len(root.spans) < 3 {
				t.Fatalf("traced request has no span tree: %+v", root)
			}
			if w.open == nil {
				// A computed answer reaches the source through the wrapper.
				calls := 0
				for _, s := range root.spans {
					if s.layer == lWebdb {
						calls++
					}
				}
				if calls != traced[0].body.Work.QueriesIssued {
					t.Errorf("wrapper saw %d source calls, the answer reports %d", calls, traced[0].body.Work.QueriesIssued)
				}
			}
			assertServiceFacesKept(t, st)
		})
	}
}

// assertServiceFacesKept: with the source wrapper in place the service
// still finds the Resilient Stats (/healthz reports the breaker) and, on a
// local source, the engine behind /metrics.
func assertServiceFacesKept(t *testing.T, st *stack) {
	t.Helper()
	get := func(path string) string {
		resp, err := http.Get(st.url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if h := get("/healthz"); !strings.Contains(h, `"breaker":"closed"`) {
		t.Errorf("/healthz lost the resilience stats: %s", h)
	}
	if !st.w.remote && !strings.Contains(get("/metrics"), "aimq_engine_") {
		t.Error("/metrics no longer reaches the engine")
	}
}

func TestQueryStreamRepeatsAndIsDistinct(t *testing.T) {
	w := small(t, "car-cold")
	rel := w.generate(5)
	all := []int{0, 1, 2, 3, 4, 5, 6}
	a := queryStream(rel, all, 3, 130, rand.New(rand.NewSource(9)), map[string]bool{})
	b := queryStream(rel, all, 3, 130, rand.New(rand.NewSource(9)), map[string]bool{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different queries")
	}
	seen := map[string]bool{}
	for _, q := range a {
		if seen[q] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[q] = true
	}
	// Each round of 63 shapes holds 7 single-predicate queries.
	singles := 0
	for _, q := range a[:63] {
		if !strings.Contains(q, ",") {
			singles++
		}
	}
	if singles != 7 {
		t.Errorf("first round has %d single-predicate queries, want 7", singles)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	for _, s := range []span{
		{req: "r", layer: lRequest, start: 0, end: 100},
		{req: "r", layer: lHTTP, start: 5, end: 100},
		{req: "r", layer: lService, start: 10, end: 90},
		{req: "r", layer: lWebdb, start: 20, end: 40},
		{req: "r", layer: lWebdb, start: 50, end: 60},
	} {
		tr.add(s)
	}
	tree := tr.buildTrees()["r"]
	want := map[layer]int64{lRequest: 5, lHTTP: 15, lService: 50, lWebdb: 20 + 10}
	got := map[layer]int64{}
	for i, s := range tree.spans {
		got[s.layer] += tree.self[i]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestDiffAnswersCatchesMismatch(t *testing.T) {
	w := small(t, "car-cold")
	o := options{seed: 2, seconds: 1, out: t.TempDir()}
	wd, rel, err := prepareWorld(w, o)
	if err != nil {
		t.Fatal(err)
	}
	p := w.makePlan(rel, o.seed, o.seconds)
	recs, st := serve(t, w, wd, p.stream[:1], nil)
	if bad := recompute(st, checkSample(st, recs, 1, 0)); len(bad) != 0 {
		t.Fatalf("served answer does not recompute: %v", bad)
	}
	ans := recs[0].body.Answers
	ans[0].Values = append([]string(nil), ans[0].Values...)
	ans[0].Values[0] += "x"
	if bad := recompute(st, checkSample(st, recs, 1, 0)); len(bad) != 1 {
		t.Fatalf("altered answer not caught: %v", bad)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads the program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
