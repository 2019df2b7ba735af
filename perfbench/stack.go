package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"aimq/internal/core"
	"aimq/internal/engine"
	"aimq/internal/lifecycle"
	"aimq/internal/obs"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// The configs below are what aimq-serve runs with under its default flags.
// Every field not set here is left at its zero value, so a later change to a
// library default shows up in the numbers. The only non-zero values are
// where aimq-serve's flag defaults differ from the library defaults.

// discardLogger is aimq-serve's INFO text logger, writing nowhere.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// resilientConfig mirrors -retry-attempts 3, -retry-base 50ms,
// -breaker-failures 5 and -breaker-open 10s.
func resilientConfig() webdb.ResilientConfig {
	return webdb.ResilientConfig{
		Retry:   webdb.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
		Breaker: webdb.BreakerConfig{FailureThreshold: 5, OpenTimeout: 10 * time.Second},
	}
}

// learnConfig mirrors -probe-workers 1. The library's zero Workers also
// means one goroutine for probing, mining and supertuples, but GOMAXPROCS
// for the similarity pair sweep, so aimq-serve's explicit 1 differs.
func learnConfig() service.LearnConfig { return service.LearnConfig{Workers: 1} }

// engineConfig is -fail-degrade (on by default in aimq-serve, FailAbort in
// the library) plus the workload's own departures.
func (w *workload) engineConfig() core.Config {
	cfg := w.engine
	cfg.OnFailure = core.FailDegrade
	return cfg
}

func (w *workload) serviceConfig() service.Config {
	return service.Config{Engine: w.engineConfig(), Logger: discardLogger()}
}

// lifecycleConfig mirrors aimq-serve's controller wiring: -refresh-probation
// 200 is the one default that differs from the library's; audit-log shadow
// validation and model persistence stay off, as in aimq-serve by default.
func (w *workload) lifecycleConfig() lifecycle.Config {
	return lifecycle.Config{Engine: w.engineConfig(), ProbationWindow: 200, Logger: discardLogger()}
}

// world is the part of a run that exists before the service starts and is
// not counted in setup: the CSV the source loads and, on car-hot-swap, the
// drifted copy of the source the benchmark swaps in.
type world struct {
	csv       string
	perturbed *webdb.Local
}

// stack is one assembled serving stack.
type stack struct {
	w     *workload
	svc   *service.Service
	model *service.Model
	res   *webdb.Resilient
	// engines are the columnar engines behind the source: the engine layer
	// reads their Stats (car-hot-swap has two, base and perturbed).
	engines []*engine.Engine
	// variants are car-hot-swap's source states, base first.
	variants []*webdb.Local
	swap     *webdb.Swap
	ctl      *lifecycle.Controller
	url      string
	// pool is car-hot-swap's hot query pool, pre-warmed at set-up.
	pool []string
	// models maps fingerprints to every model the stack served or learned,
	// so answers can be recomputed on the model that produced them.
	modelsMu sync.Mutex
	models   map[string]*service.Model

	setup   time.Duration
	loadDur time.Duration
	warmDur time.Duration
	warmed  int

	stop []func()
}

// buildStack assembles the serving stack the way aimq-serve does: load the
// CSV, wrap the source in the resilience middleware, learn the model, build
// the service and listen on loopback; on census-remote the relation is
// served by a webdb.Server wired like aimqd. The setup clock runs from
// LoadCSV until the service is ready, including the pre-warm on
// car-hot-swap. With tr set, timing wrappers sit at each layer boundary.
func buildStack(w *workload, wd *world, pool []string, tr *tracer) (*stack, error) {
	st := &stack{w: w, pool: pool, models: map[string]*service.Model{}}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	start := time.Now()
	rel, err := relation.LoadCSV(wd.csv)
	if err != nil {
		return nil, err
	}
	st.loadDur = time.Since(start)

	var src webdb.Source
	switch {
	case w.remote:
		src, err = st.startRemote(rel, tr)
		if err != nil {
			return nil, err
		}
	case w.open != nil:
		base := webdb.NewLocal(rel)
		st.variants = []*webdb.Local{base, wd.perturbed}
		st.engines = []*engine.Engine{base.Engine(), wd.perturbed.Engine()}
		st.swap = webdb.NewSwap(base)
		src = st.swap
	default:
		local := webdb.NewLocal(rel)
		st.engines = []*engine.Engine{local.Engine()}
		src = local
	}
	if tr != nil {
		// Beneath Resilient, so the service still finds the Resilient Stats
		// it uses for stale serving and /healthz.
		src = &timedSource{src: src, tr: tr, engines: st.engines, local: !w.remote}
	}
	st.res = webdb.NewResilient(src, resilientConfig())

	m, err := service.BuildModel(st.res, learnConfig())
	if err != nil {
		return nil, err
	}
	st.model = m
	st.models[m.Info().Fingerprint] = m
	st.svc = service.New(st.res, m.Est, &core.Guided{Ord: m.Ord}, w.serviceConfig())
	st.svc.SetLearnStats(m.Stats)
	st.svc.SetModelInfo(m.Info())

	if w.open != nil {
		st.ctl = lifecycle.New(st.svc, st.res, st.learnFunc(tr), w.lifecycleConfig())
		st.ctl.SetServing(m)
		st.svc.AttachLifecycle(st.ctl)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			st.ctl.Run(ctx)
		}()
		st.stop = append(st.stop, func() { cancel(); <-done })

		snap := service.CacheSnapshot{Version: 1}
		for _, q := range pool {
			// k and Tsim as the service resolves them for a bare ?q= request.
			snap.Entries = append(snap.Entries, service.CacheSnapshotEntry{Query: q, K: 10, Tsim: 0.5})
		}
		warmStart := time.Now()
		st.warmed, err = st.svc.WarmCache(context.Background(), snap)
		if err != nil {
			return nil, fmt.Errorf("warm cache: %w", err)
		}
		st.warmDur = time.Since(warmStart)
	}

	if err := st.listen(tr); err != nil {
		return nil, err
	}
	st.setup = time.Since(start)
	ok = true
	return st, nil
}

// learnFunc is the re-learn the lifecycle controller runs, exactly as
// aimq-serve passes it (BuildModel over the serving source); the benchmark
// only remembers each model so its answers can be recomputed later.
func (st *stack) learnFunc(tr *tracer) func() (*service.Model, error) {
	return func() (*service.Model, error) {
		var id string
		var start int64
		if tr != nil {
			id, start = tr.currentRefresh(), tr.now()
		}
		m, err := service.BuildModel(st.res, learnConfig())
		if tr != nil {
			tr.add(span{req: id, layer: lLearn, start: start, end: tr.now()})
		}
		if err == nil {
			st.modelsMu.Lock()
			st.models[m.Info().Fingerprint] = m
			st.modelsMu.Unlock()
		}
		return m, err
	}
}

func (st *stack) modelByFingerprint(fp string) *service.Model {
	st.modelsMu.Lock()
	defer st.modelsMu.Unlock()
	return st.models[fp]
}

// listen serves the service on loopback. The untraced stack uses the
// service's own listener (aimq-serve's path); the traced one needs the
// timing wrapper around ServeHTTP, so it builds the same http.Server by hand.
func (st *stack) listen(tr *tracer) error {
	if tr == nil {
		srv, err := st.svc.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		st.serve(srv.Serve, func(ctx context.Context) error { return srv.Shutdown(ctx) })
		st.url = "http://" + srv.Addr()
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The same timeouts as service.Listen.
	hs := &http.Server{
		Handler:           &timedHandler{next: st.svc, tr: tr},
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30*time.Second + 15*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	st.serve(func() error { return hs.Serve(ln) }, hs.Shutdown)
	st.url = "http://" + ln.Addr().String()
	return nil
}

// serve runs a server loop in the background and registers its shutdown.
func (st *stack) serve(loop func() error, shutdown func(context.Context) error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := loop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: server loop: %v\n", err)
		}
	}()
	st.stop = append(st.stop, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = shutdown(ctx)
		<-done
	})
}

// startRemote serves rel the way aimqd does — a ProbeCounter over a local
// source behind webdb.Server with the trace ring on and a request log —
// and returns the webdb.Client that aimq-serve's -source mode would use.
func (st *stack) startRemote(rel *relation.Relation, tr *tracer) (webdb.Source, error) {
	local := webdb.NewLocal(rel)
	st.engines = []*engine.Engine{local.Engine()}
	server := webdb.NewServer(&webdb.ProbeCounter{Src: local})
	ring := obs.NewRing(64)
	server.EnableTracing(ring)
	mux := http.NewServeMux()
	mux.Handle("/", server)
	export := func(w http.ResponseWriter, _ *http.Request) {
		recent, _ := ring.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, recent)
	}
	mux.HandleFunc("GET /debug/traces", export)
	mux.HandleFunc("GET /debug/traces/export", export)
	var handler http.Handler = logRequests(mux, discardLogger())
	if tr != nil {
		handler = &timedServer{next: handler, tr: tr, engines: st.engines}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// aimqd's server timeouts.
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	st.serve(func() error { return hs.Serve(ln) }, hs.Shutdown)
	return webdb.NewClient("http://"+ln.Addr().String(), nil)
}

// logRequests is aimqd's per-request log line.
func logRequests(next http.Handler, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		start := time.Now()
		next.ServeHTTP(w, r)
		attrs := []any{"request_id", id, "method", r.Method,
			"url", r.URL.String(), "elapsed", time.Since(start).Round(time.Microsecond)}
		if tid := w.Header().Get("X-Trace-ID"); tid != "" {
			attrs = append(attrs, "trace_id", tid)
		}
		log.Info("request", attrs...)
	})
}

// sumStats adds up the counters the engine layer reads.
func sumStats(engines []*engine.Engine) engine.Snapshot {
	var s engine.Snapshot
	for _, e := range engines {
		x := e.Stats().Snapshot()
		s.Queries += x.Queries
		s.TuplesScanned += x.TuplesScanned
		s.BusyNanos += x.BusyNanos
		s.ChunksVisited += x.ChunksVisited
	}
	return s
}

// close stops every server and background loop, newest first, and waits
// for each to exit.
func (st *stack) close() {
	for i := len(st.stop) - 1; i >= 0; i-- {
		st.stop[i]()
	}
	st.stop = nil
}
