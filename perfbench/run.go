package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// measureEndToEnd is the untraced run: set up several times (setup_s is
// the median), drive the window on the last stack, check the answers and
// report the end-to-end metrics.
func measureEndToEnd(w *workload, o options, out io.Writer) (*result, error) {
	printWorkload(out, w, o)
	wd, rel, err := prepareWorld(w, o)
	if err != nil {
		return nil, err
	}
	defer os.Remove(wd.csv)
	p := w.makePlan(rel, o.seed, o.seconds)
	rel = nil // the stacks load their own copy from the CSV

	var setupTimes []time.Duration
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		if st, err = buildStack(w, wd, p.stream, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, st.setup)
	}
	defer st.close()

	wr, err := runWindow(st, p, o, nil)
	if err != nil {
		return nil, err
	}
	// The stack is still referenced below, so the service stays reachable
	// while the heap is read.
	heap := heapMB()
	bad, err := verify(st, wr, o)
	if err != nil {
		return nil, err
	}

	values, notes := endToEndValues(w, setupTimes, wr, heap)
	printf(out, "set-up times: %v (median reported)", setupTimes)
	for _, n := range notes {
		printf(out, "%s", n)
	}
	printf(out, "end-to-end metrics:")
	printMetrics(out, endToEnd, values)
	reportViolations(out, bad)
	return &result{
		correct: len(bad) == 0, attempted: len(wr.recs), failed: failedCount(wr.recs),
		metrics: endToEnd, values: values,
	}, nil
}

func failedCount(recs []*record) int {
	n := 0
	for _, r := range recs {
		if r.failed {
			n++
		}
	}
	return n
}

func reportViolations(out io.Writer, bad []string) {
	if len(bad) == 0 {
		printf(out, "correctness: every response checked, sampled answers recomputed and identical")
		return
	}
	printf(out, "correctness: %d WRONG ANSWERS", len(bad))
	for i, b := range bad {
		if i == 20 {
			printf(out, "  ... %d more", len(bad)-i)
			break
		}
		printf(out, "  %s", b)
	}
}

// endToEndValues computes the end-to-end metrics of one window.
func endToEndValues(w *workload, setupTimes []time.Duration, wr windowResult, heap float64) (map[string]float64, []string) {
	n := len(wr.recs)
	failed := failedCount(wr.recs)
	lat := make([]float64, 0, n)
	for _, r := range wr.recs {
		if r.failed {
			lat = append(lat, math.Inf(1)) // a failed request misses every latency limit
			continue
		}
		lat = append(lat, ms(r.latency()))
	}
	sort.Float64s(lat)
	p50, _ := percentile(lat, 0.50)

	// Count metrics: over a fixed stream prefix on closed loops, so they
	// repeat exactly for a seed; over every request on the open loop.
	counted := wr.recs
	if w.open == nil {
		counted = wr.recs[:w.countPrefix]
	}
	var srcQueries, extracted, qualified, answers float64
	var simSum float64
	for _, r := range counted {
		if r.body == nil {
			continue
		}
		if !r.body.Cached && !r.body.Shared {
			srcQueries += float64(r.body.Work.QueriesIssued)
			extracted += float64(r.body.Work.TuplesExtracted)
			qualified += float64(r.body.Work.TuplesQualified)
		}
		answers += float64(len(r.body.Answers))
		for _, a := range r.body.Answers {
			simSum += a.Sim
		}
	}
	v := map[string]float64{
		"setup_s":                    median(setupTimes).Seconds(),
		"requests_per_s":             float64(n-failed) / wr.elapsed.Seconds(),
		"answer_p50_ms":              p50,
		"cpu_ms_per_request":         ms(wr.cpu) / float64(n),
		"source_queries_per_request": srcQueries / float64(len(counted)),
		"work_per_relevant":          ratio(extracted, qualified),
		"answers_per_request":        answers / float64(len(counted)),
		"mean_sim":                   ratio(simSum, answers),
		"heap_mb":                    heap,
	}
	slow := 0
	for _, l := range lat {
		if l > 10*p50 {
			slow++
		}
	}
	notes := []string{
		fmt.Sprintf("requests: %d attempted, %d failed (failed_share %.4f ratio), window %.2fs, cache hits %d / misses %d, shared flights %d, model swaps %d",
			n, failed, ratio(float64(failed), float64(n)), wr.elapsed.Seconds(), wr.hits, wr.misses, wr.shared, wr.promotes),
		fmt.Sprintf("latency: %d requests slower than 10x the median; count metrics over %d requests", slow, len(counted)),
	}
	for _, p := range []float64{0.90, 0.95, 0.99} {
		name := fmt.Sprintf("answer_p%.0f_ms", 100*p)
		if x, ok := percentile(lat, p); ok {
			notes = append(notes, fmt.Sprintf("%s %.4f ms (%d samples beyond)", name, x, n-int(math.Ceil(p*float64(n)))))
		} else {
			notes = append(notes, fmt.Sprintf("%s not reported: fewer than %d of %d samples lie beyond it", name, minBeyond, n))
		}
	}
	return v, notes
}

// measureLayers is the traced run: the same workload and seed once
// untraced (the overhead baseline) and once with the timing wrappers, then
// a direct core pass; it reports the per-layer metrics and writes the span
// file.
func measureLayers(w *workload, o options, out io.Writer) (*result, error) {
	printWorkload(out, w, o)
	wd, rel, err := prepareWorld(w, o)
	if err != nil {
		return nil, err
	}
	defer os.Remove(wd.csv)
	p := w.makePlan(rel, o.seed, o.seconds)
	rel = nil

	st, err := buildStack(w, wd, p.stream, nil)
	if err != nil {
		return nil, err
	}
	wrU, err := runWindow(st, p, o, nil)
	if err == nil {
		var badU []string
		if badU, err = verify(st, wrU, o); err == nil && len(badU) > 0 {
			err = fmt.Errorf("untraced baseline window served wrong answers: %s", badU[0])
		}
	}
	st.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	tr := newTracer()
	if st, err = buildStack(w, wd, p.stream, tr); err != nil {
		return nil, err
	}
	defer st.close()
	wrT, err := runWindow(st, p, o, tr)
	if err != nil {
		return nil, err
	}
	bad, err := verify(st, wrT, o)
	if err != nil {
		return nil, err
	}
	info, _ := st.svc.ModelInfo()
	model := st.modelByFingerprint(info.Fingerprint)
	passQueries := p.stream
	if w.open == nil {
		passQueries = p.stream[:w.corePass]
	}
	cs, err := corePass(st, model, tr, passQueries)
	if err != nil {
		return nil, err
	}

	trees := tr.buildTrees()
	values, selfLines := layerValues(st, wrU, wrT, trees, cs)
	spanFile := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
	if err := writeSpans(spanFile, tr.origin, exported(wrT, cs, trees), traceLabel(wrT, passQueries)); err != nil {
		return nil, err
	}
	printf(out, "self time per layer (ms per request; served run, except core and relax.schedule from the direct core pass over %d queries):", cs.queries)
	for _, l := range selfLines {
		printf(out, "  %s", l)
	}
	printf(out, "per-layer metrics:")
	printMetrics(out, perLayer, values)
	printf(out, "span file: %s (Chrome trace-event JSON; open in Perfetto)", spanFile)
	reportViolations(out, bad)
	return &result{
		correct: len(bad) == 0, attempted: len(wrT.recs), failed: failedCount(wrT.recs),
		metrics: perLayer, values: values,
	}, nil
}

// layerValues turns the traced run's spans and counters into the per-layer
// metrics, and lists each layer's self time per request.
func layerValues(st *stack, wrU, wrT windowResult, trees map[string]*tree, cs corePassStats) (map[string]float64, []string) {
	var dur, self, count [nLayers]float64
	var tuples, failedCalls, serverBytes float64
	n := float64(len(wrT.recs))
	computed := 0.0
	for _, r := range wrT.recs {
		if r.body != nil && !r.body.Cached && !r.body.Shared {
			computed++
		}
		t := trees[r.id()]
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			dur[s.layer] += float64(s.dur())
			self[s.layer] += float64(t.self[i])
			count[s.layer]++
			switch s.layer {
			case lWebdb:
				tuples += float64(s.n)
				if s.failed {
					failedCalls++
				}
			case lServer:
				serverBytes += float64(s.n)
			}
		}
	}

	// The direct core pass: core's own time, the schedule, and how many of
	// its source calls were base-set probes (issued before the first
	// Schedule call) rather than relaxation steps.
	var coreSelf, relaxDur, steps, baseCalls float64
	for i := 0; i < cs.queries; i++ {
		t := trees["b"+strconv.Itoa(i)]
		if t == nil {
			continue
		}
		firstRelax := int64(math.MaxInt64)
		for _, s := range t.spans {
			if s.layer == lRelax && s.start < firstRelax {
				firstRelax = s.start
			}
		}
		for j, s := range t.spans {
			switch s.layer {
			case lCore:
				coreSelf += float64(t.self[j])
			case lRelax:
				relaxDur += float64(s.dur())
				steps += float64(s.n)
			case lWebdb:
				if s.start < firstRelax {
					baseCalls++
				}
			}
		}
	}
	q := float64(cs.queries)
	coreInproc := ratio(coreSelf+relaxDur, q) // ns of in-process core work per computed answer

	var refreshMs, learnMs, learns float64
	for _, rf := range wrT.refreshes {
		refreshMs += ms(rf.finished - rf.drift)
		if t := trees[rf.id]; t != nil {
			for _, s := range t.spans {
				if s.layer == lLearn {
					learnMs += float64(s.dur()) / 1e6
					learns++
				}
			}
		}
	}
	lag := make([]float64, 0, len(wrT.recs))
	for _, r := range wrT.recs {
		lag = append(lag, ms(r.sent-r.due))
	}
	sort.Float64s(lag)
	lagP99, _ := percentile(lag, 0.99)

	remote := 0.0
	if st.w.remote {
		remote = 1
	}
	stage := map[string]float64{}
	ls := st.model.Stats
	for _, sg := range ls.Stages {
		stage[sg.Name] = sg.DurMs
	}
	cpuU := ratio(ms(wrU.cpu), float64(len(wrU.recs)))
	cpuT := ratio(ms(wrT.cpu), n)
	ns := func(x float64) float64 { return x / n / 1e6 } // total ns → ms per request

	v := map[string]float64{
		"http.ms_per_request":                ns(self[lHTTP]),
		"service.handler_ms_per_request":     ns(dur[lService]),
		"service.self_ms_per_request":        ns(self[lService] - computed*coreInproc),
		"service.cache_hit_share":            ratio(float64(wrT.hits), float64(wrT.hits+wrT.misses)),
		"service.response_bytes_per_request": bytesPerRequest(wrT.recs),
		"service.warm_ms":                    ms(st.warmDur),
		"core.self_ms_per_request":           ratio(coreSelf, q) / 1e6,
		"core.base_tuples_per_request":       ratio(float64(cs.base), q),
		"core.steps_pruned_per_request":      ratio(float64(cs.pruned), q),
		"core.qualified_share":               ratio(float64(cs.qualified), float64(cs.extract)),
		"relax.schedule_ms_per_request":      ratio(relaxDur, q) / 1e6,
		"relax.steps_per_request":            ratio(steps, q),
		"relax.issued_share":                 ratio(float64(cs.issued)-baseCalls, steps),
		"webdb.calls_per_request":            count[lWebdb] / n,
		"webdb.ms_per_request":               ns(dur[lWebdb]),
		"webdb.us_per_call":                  ratio(dur[lWebdb], count[lWebdb]) / 1e3,
		"webdb.tuples_per_call":              ratio(tuples, count[lWebdb]),
		"webdb.failed_share":                 ratio(failedCalls, count[lWebdb]),
		"webdb.retries_per_request":          float64(wrT.retries) / n,
		"webdb.transport_ms_per_request":     remote * ns(self[lWebdb]),
		"webdb.bytes_per_call":               ratio(serverBytes, count[lServer]),
		"engine.ms_per_request":              float64(wrT.engine.busy) / n / 1e6,
		"engine.us_per_query":                ratio(float64(wrT.engine.busy), float64(wrT.engine.queries)) / 1e3,
		"engine.chunks_visited_per_query":    ratio(float64(wrT.engine.chunks), float64(wrT.engine.queries)),
		"engine.tuples_scanned_per_query":    ratio(float64(wrT.engine.scanned), float64(wrT.engine.queries)),
		"relation.load_ms":                   ms(st.loadDur),
		"learn.probe_ms":                     stage["probe"],
		"learn.mine_ms":                      stage["mine"],
		"learn.supertuple_ms":                stage["supertuple"],
		"learn.snapshot_ms":                  stage["snapshot"],
		"tane.products_computed":             float64(ls.ProductsComputed),
		"probe.spanning_queries":             float64(ls.SpanningQueries),
		"lifecycle.refresh_ms":               ratio(refreshMs, float64(len(wrT.refreshes))),
		"lifecycle.learn_ms":                 ratio(learnMs, learns),
		"lifecycle.promotes":                 float64(wrT.promotes),
		"loadgen.send_lag_p99_ms":            lagP99,
		"trace.overhead_share":               ratio(cpuT-cpuU, cpuU),
		"trace.unaccounted_ms_per_request":   ns(self[lRequest]),
	}

	lines := []string{
		fmt.Sprintf("%-18s %10.4f  (client round trip minus the service handler)", "http", v["http.ms_per_request"]),
		fmt.Sprintf("%-18s %10.4f  (handler minus source calls minus core's in-process time)", "service", v["service.self_ms_per_request"]),
		fmt.Sprintf("%-18s %10.4f  (x %.3f computed answers per request)", "core", computed/n*v["core.self_ms_per_request"], computed/n),
		fmt.Sprintf("%-18s %10.4f", "relax.schedule", computed/n*v["relax.schedule_ms_per_request"]),
	}
	if st.w.remote {
		lines = append(lines,
			fmt.Sprintf("%-18s %10.4f  (client call minus server handler: HTTP + JSON)", "webdb", ns(self[lWebdb])),
			fmt.Sprintf("%-18s %10.4f  (includes the engine, %.4f ms)", "webdb.server", ns(self[lServer]), v["engine.ms_per_request"]))
	} else {
		lines = append(lines,
			fmt.Sprintf("%-18s %10.4f  (includes the engine, %.4f ms)", "webdb", ns(self[lWebdb]), v["engine.ms_per_request"]))
	}
	e2e := ns(dur[lRequest])
	lines = append(lines,
		fmt.Sprintf("%-18s %10.4f  (%.2f%% of the %.4f ms mean end-to-end latency)", "no layer", v["trace.unaccounted_ms_per_request"],
			100*ratio(v["trace.unaccounted_ms_per_request"], e2e), e2e),
		fmt.Sprintf("tracing overhead: %.4f -> %.4f CPU ms per request untraced -> traced (%+.2f%%)", cpuU, cpuT, 100*v["trace.overhead_share"]))
	return v, lines
}

func bytesPerRequest(recs []*record) float64 {
	total := 0
	for _, r := range recs {
		total += r.bytes
	}
	return ratio(float64(total), float64(len(recs)))
}

// exported picks the trees written to the span file: every 10th served
// request, every 8th core-pass query and every lifecycle refresh. Self
// times and metrics use every span; the sample keeps the file small.
func exported(wr windowResult, cs corePassStats, trees map[string]*tree) []*tree {
	var out []*tree
	add := func(id string) {
		if t := trees[id]; t != nil {
			out = append(out, t)
		}
	}
	for _, r := range wr.recs {
		if r.idx%10 == 0 {
			add(r.id())
		}
	}
	for i := 0; i < cs.queries; i += 8 {
		add("b" + strconv.Itoa(i))
	}
	for _, rf := range wr.refreshes {
		add(rf.id)
	}
	return out
}

func traceLabel(wr windowResult, pass []string) func(string) string {
	served := map[string]string{}
	for _, r := range wr.recs {
		served[r.id()] = r.query
	}
	return func(id string) string {
		if q, ok := served[id]; ok {
			return id + " " + q
		}
		if len(id) > 1 && id[0] == 'b' {
			if i, err := strconv.Atoi(id[1:]); err == nil && i < len(pass) {
				return "core pass " + id + " " + pass[i]
			}
		}
		return id
	}
}
