// Command perfbench is the repository's end-to-end serving benchmark. It
// builds the AIMQ serving stack the way aimq-serve wires it (and, for a
// remote source, the way aimqd does), sends GET /answer over loopback HTTP,
// checks every answer and prints the end-to-end metrics. With -trace 1 it
// runs the workload once untraced and once with timing wrappers at each
// layer boundary, and prints the per-layer metrics, the time no layer
// accounts for, the tracing overhead and a Perfetto-loadable span file.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload car-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when an answer is wrong, 2 when the run could not be
// made (and then no JSON is printed).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"aimq/internal/datagen"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are a run's inputs besides the workload.
type options struct {
	seed    int64
	seconds int
	out     string // directory for generated CSVs and span files
}

// setups is how many times an untraced run sets the stack up; setup_s is
// their median.
const setups = 3

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: car-cold, census-remote or car-hot-swap")
	seed := fs.Int64("seed", 1, "workload seed: the data and the queries derive from it")
	seconds := fs.Int("seconds", 25, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for generated data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (car-cold, census-remote, car-hot-swap), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, out: *out}
	var res *result
	var err error
	if *trace == 0 {
		res, err = measureEndToEnd(w, o, stdout)
	} else {
		res, err = measureLayers(w, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if !res.correct {
		return 1
	}
	return 0
}

// result is the run's final JSON line.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	values            map[string]float64
}

func (r *result) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]value{}
	for _, mt := range r.metrics {
		v, ok := r.values[mt.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", mt.name)
		}
		m[mt.name] = value{v, mt.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// prepareWorld generates the workload's data from the seed and writes the
// CSV the source loads. None of this is counted in setup.
func prepareWorld(w *workload, o options) (*world, *relation.Relation, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	rel := w.generate(o.seed)
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%d.csv", w.name, o.seed, os.Getpid()))
	if err := relation.SaveCSV(path, rel); err != nil {
		return nil, nil, err
	}
	wd := &world{csv: path}
	if w.open != nil {
		wd.perturbed = webdb.NewLocal(datagen.Perturb(rel, w.open.perturb))
	}
	return wd, rel, nil
}

// windowResult is what one measured window produced.
type windowResult struct {
	recs    []*record
	elapsed time.Duration
	cpu     time.Duration
	engine  struct{ queries, busy, chunks, scanned int64 }
	retries int64
	hits    int64
	misses  int64
	shared  int64
	// refreshes are car-hot-swap's drift → promote cycles, in order.
	refreshes []refresh
	promotes  int64
	epochs    []epoch
}

// refresh is one drift the benchmark injected and the re-learn it caused.
type refresh struct {
	id              string
	drift, finished time.Duration
	// promoted is false when the re-learn found the model unchanged: then
	// nothing was swapped and the cache was kept.
	promoted    bool
	fingerprint string
	variant     int
}

// runWindow drives the workload's load against st for the window and
// gathers the counters around it. On car-hot-swap it also injects the
// source drifts and waits for each re-learn to land.
func runWindow(st *stack, p plan, o options, tr *tracer) (windowResult, error) {
	w := st.w
	window := time.Duration(o.seconds) * time.Second
	lc := newLoadClient(st.url, conns(), st.res.Schema().Arity(), tr)
	defer lc.close()
	if w.open == nil {
		lc.distinct = true
		// Warm-up: connections, heap growth and lazy set-up happen before
		// the clock starts. These queries are distinct from the measured ones.
		lc.origin = time.Now()
		for _, r := range lc.closedLoop(p.warmup, true, conns(), len(p.warmup), 0) {
			if r.failed || r.violation != "" {
				return windowResult{}, fmt.Errorf("warm-up request %q failed (status %d) %s", r.query, r.status, r.violation)
			}
		}
	}

	var wr windowResult
	engBefore := sumStats(st.engines)
	resBefore := st.res.Stats()
	hits0, misses0, _ := st.svc.Metrics()
	shared0 := st.svc.SharedFlights()
	swaps0 := st.svc.ModelSwaps()
	cpu0 := cpuTime()
	lc.origin = time.Now()
	var driftErr error
	if w.open == nil {
		wr.recs = lc.closedLoop(p.stream, false, conns(), w.countPrefix, window)
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			wr.refreshes, driftErr = st.injectDrifts(lc.origin, window, tr)
		}()
		wr.recs = lc.openLoop(p.stream, p.draws, w.open.rate, conns())
		<-done
	}
	for _, r := range wr.recs {
		wr.elapsed = max(wr.elapsed, r.done)
	}
	wr.cpu = cpuTime() - cpu0
	engAfter := sumStats(st.engines)
	wr.engine.queries = engAfter.Queries - engBefore.Queries
	wr.engine.busy = engAfter.BusyNanos - engBefore.BusyNanos
	wr.engine.chunks = engAfter.ChunksVisited - engBefore.ChunksVisited
	wr.engine.scanned = engAfter.TuplesScanned - engBefore.TuplesScanned
	wr.retries = st.res.Stats().Retries - resBefore.Retries
	hits1, misses1, _ := st.svc.Metrics()
	wr.hits, wr.misses = hits1-hits0, misses1-misses0
	wr.shared = st.svc.SharedFlights() - shared0
	wr.promotes = st.svc.ModelSwaps() - swaps0
	if driftErr != nil {
		return wr, driftErr
	}
	if w.open != nil {
		wr.epochs = epochsOf(st, wr.refreshes)
	}
	return wr, nil
}

// injectDrifts flips the source at each of the workload's swap points and
// triggers a re-learn, waiting until the controller finishes the attempt.
func (st *stack) injectDrifts(origin time.Time, window time.Duration, tr *tracer) ([]refresh, error) {
	var out []refresh
	for k, f := range st.w.open.swapAt {
		time.Sleep(time.Until(origin.Add(time.Duration(f * float64(window)))))
		rf := refresh{id: fmt.Sprintf("refresh%d", k), variant: (k + 1) % len(st.variants)}
		if tr != nil {
			tr.refreshID.Store(&rf.id)
		}
		gen := st.svc.ModelGeneration()
		drift := time.Now()
		st.swap.Set(st.variants[rf.variant])
		st.ctl.TriggerRefresh("benchmark source drift")
		for {
			rs := st.ctl.RefreshStats()
			if rs.LastAt.After(drift) && rs.State != "learning" && rs.State != "validating" && rs.State != "promoting" {
				if rs.LastError != "" {
					return out, fmt.Errorf("re-learn after drift %d failed: %s", k, rs.LastError)
				}
				break
			}
			if time.Since(drift) > time.Minute {
				return out, fmt.Errorf("re-learn after drift %d did not finish within a minute", k)
			}
			time.Sleep(2 * time.Millisecond)
		}
		finished := time.Now()
		if tr != nil {
			tr.refreshID.Store(nil)
			tr.add(span{req: rf.id, layer: lRefresh, start: tr.at(drift), end: tr.at(finished)})
		}
		info, _ := st.svc.ModelInfo()
		rf.fingerprint = info.Fingerprint
		rf.promoted = st.svc.ModelGeneration() > gen
		rf.drift, rf.finished = drift.Sub(origin), finished.Sub(origin)
		out = append(out, rf)
	}
	return out, nil
}

// epochsOf splits a car-hot-swap window at each drift and promote. A drift
// whose re-learn found the model unchanged starts no epoch: the cache still
// holds answers computed over the previous source state.
func epochsOf(st *stack, rs []refresh) []epoch {
	const forever = time.Duration(1<<63 - 1)
	eps := []epoch{{from: 0, to: forever, fingerprint: st.model.Info().Fingerprint, variant: 0}}
	for _, r := range rs {
		if last := &eps[len(eps)-1]; last.to > r.drift {
			last.to = r.drift
		}
		if r.promoted {
			eps = append(eps, epoch{from: r.finished, to: forever, fingerprint: r.fingerprint, variant: r.variant})
		}
	}
	return eps
}

// verify runs the recompute check for the window and returns the
// violations, per-response ones included.
func verify(st *stack, wr windowResult, o options) ([]string, error) {
	var bad []string
	for _, r := range wr.recs {
		if r.violation != "" {
			bad = append(bad, fmt.Sprintf("request %s (%s): %s", r.id(), r.query, r.violation))
		}
	}
	var targets []checkTarget
	if st.w.open == nil {
		if wr.shared != 0 {
			bad = append(bad, fmt.Sprintf("%d requests shared a flight on a distinct-key workload", wr.shared))
		}
		targets = checkSample(st, wr.recs, st.w.checkEvery, o.seed)
	} else {
		// Every computed answer refills one pool key of one generation;
		// anything beyond that (plus single-flight sharers) means the cache
		// served less than it should.
		computed := 0
		for _, r := range wr.recs {
			if r.body != nil && !r.body.Cached && !r.body.Shared {
				computed++
			}
		}
		pool := len(st.pool)
		if st.warmed != pool {
			bad = append(bad, fmt.Sprintf("WarmCache warmed %d of the %d pool queries", st.warmed, pool))
		}
		if limit := (len(wr.refreshes) + 1) * pool; computed > limit {
			bad = append(bad, fmt.Sprintf("%d computed answers over %d generations of a %d-query pool", computed, len(wr.refreshes)+1, pool))
		}
		var err error
		targets, err = checkSampleEpochs(st, wr.recs, st.w.checkEvery, o.seed, wr.epochs)
		if err != nil {
			return nil, err
		}
	}
	if len(targets) == 0 {
		return nil, errors.New("no request was sampled for the recompute check")
	}
	return append(bad, recompute(st, targets)...), nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// printf writes one report line.
func printf(w io.Writer, format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

func printMetrics(w io.Writer, ms []metric, values map[string]float64) {
	for _, m := range ms {
		printf(w, "  %-36s %14.4f %s", m.name, values[m.name], m.unit)
	}
}

func printWorkload(w io.Writer, wl *workload, o options) {
	printf(w, "workload %s, seed %d, window %ds, %d connections", wl, o.seed, o.seconds, conns())
	printf(w, "why: %s", wl.why)
	if wl.open == nil {
		printf(w, "load: closed loop, %d clients, distinct queries of 1-%d like predicates", conns(), wl.maxPreds)
	} else {
		printf(w, "load: open loop at %.0f req/s, at most %d in flight, Zipf(s=%.2f) over a hot pool of every 1-%d predicate query shape over %v; source drift + re-learn at %v of the window",
			wl.open.rate, conns(), wl.open.zipfS, wl.maxPreds, wl.open.poolAttrs, wl.open.swapAt)
	}
	for _, line := range configLines(wl) {
		printf(w, "  %s", line)
	}
}
