// Command aimq-serve is the AIMQ answering daemon: it loads (or learns and
// persists) the mined model once, then serves imprecise queries over HTTP
// with an LRU answer cache, single-flight deduplication, per-request
// deadlines, Prometheus metrics, end-to-end query tracing and graceful
// shutdown.
//
// Over a local CSV:
//
//	aimq-serve -data cardb.csv -model cardb.model.json -addr :8090
//
// Over a remote autonomous source (an aimqd instance), probing it to learn:
//
//	aimq-serve -source http://127.0.0.1:8080 -model cardb.model.json
//
// Then:
//
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry,+Price+like+10000&k=5'
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry&explain=true'
//	curl 'http://127.0.0.1:8090/debug/traces'
//	curl 'http://127.0.0.1:8090/metrics'
//	curl 'http://127.0.0.1:8090/healthz'
//
// With -debug-addr a second, private listener serves the full diagnostics
// surface (pprof, expvar, traces, the learning profile):
//
//	aimq-serve -data cardb.csv -debug-addr 127.0.0.1:8091
//	curl 'http://127.0.0.1:8091/debug/'
//
// The source is wrapped in retry + circuit-breaker middleware by default
// (tune with -retry-attempts, -retry-base, -breaker-failures, -breaker-open;
// disable with -resilient=false). With -cache-ttl set, expired cache entries
// are served marked "stale" while the breaker is open — see
// docs/ROBUSTNESS.md.
//
// Logs are structured (log/slog); every request carries a generated ID that
// is echoed back as X-Request-ID and stamped on its trace.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/drift"
	"aimq/internal/lifecycle"
	"aimq/internal/model"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/version"
	"aimq/internal/webdb"
)

func main() {
	data := flag.String("data", "", "CSV file to serve answers over")
	source := flag.String("source", "", "base URL of a remote aimqd source (alternative to -data)")
	modelPath := flag.String("model", "", "model snapshot path: loaded when present, else learned and saved here")
	addr := flag.String("addr", ":8090", "listen address")
	debugAddr := flag.String("debug-addr", "", "private listen address for pprof/expvar/traces ('' = disabled)")
	k := flag.Int("k", 10, "default answers per query")
	maxK := flag.Int("max-k", 100, "cap on client-requested k")
	tsim := flag.Float64("tsim", 0.5, "default similarity threshold")
	cacheSize := flag.Int("cache", 1024, "LRU answer cache entries")
	cacheTTL := flag.Duration("cache-ttl", 0, "answer freshness window; expired entries are served marked stale while the source is degraded (0 = never expire)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request answer deadline")
	resilient := flag.Bool("resilient", true, "wrap the source in retry + circuit-breaker middleware")
	retryAttempts := flag.Int("retry-attempts", 3, "attempts per source query, including the first (with -resilient)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "base backoff between retries, doubled per attempt with full jitter (with -resilient)")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive source failures that open the circuit breaker (with -resilient)")
	breakerOpen := flag.Duration("breaker-open", 10*time.Second, "how long an open breaker sheds load before half-open probing (with -resilient)")
	failDegrade := flag.Bool("fail-degrade", true, "return partial ranked results when relaxation queries fail (false = abort the request)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	maxQPB := flag.Int("max-queries-per-base", 0, "cap relaxation queries per base tuple (0 = unlimited)")
	sampleSize := flag.Int("sample", 0, "cap the learning sample (0 = all)")
	terr := flag.Float64("terr", 0.15, "TANE error threshold for learning")
	seed := flag.Int64("seed", 1, "probing/sampling seed")
	probeWorkers := flag.Int("probe-workers", 1, "offline-phase workers while learning: spanning probes in flight, TANE level workers, supertuple-build goroutines and the VSim pair sweep (the model is identical at any count)")
	prune := flag.Bool("prune", true, "skip relaxation queries whose Sim upper bound is already below tsim")
	keyPruneErr := flag.Float64("key-prune-max-error", 0, "also skip relaxation queries that keep the mined best key bound, when the key's g3 error is at or below this (0 = exact keys only)")
	cacheSnapshot := flag.String("cache-snapshot", "", "path for the hot-query cache snapshot: warmed from at startup, rewritten at shutdown ('' = disabled)")
	traceRing := flag.Int("trace-ring", 64, "traces kept by /debug/traces (recent and slowest each; negative disables)")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N computed answers into the trace ring (<2 = every one)")
	flightThreshold := flag.Duration("flight-threshold", 0, "tail-latency flight recorder: retain any computed answer slower than this, regardless of sampling (0 = off)")
	flightRing := flag.Int("flight-ring", 32, "traces kept by the flight recorder (recent and slowest each)")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "log answers slower than this at WARN (negative disables)")
	auditLog := flag.String("audit-log", "", "durable query audit log path (JSONL wide events; '' = disabled)")
	auditSample := flag.Int("audit-sample", 0, "audit 1 in N computed answers (<2 = every one)")
	auditMaxBytes := flag.Int64("audit-max-bytes", 64<<20, "rotate the audit log when it reaches this size")
	auditMaxAge := flag.Duration("audit-max-age", 0, "rotate the audit log after this age (0 = size-only rotation)")
	driftInterval := flag.Duration("drift-interval", 0, "re-probe the source and compare against the model's drift baseline at this interval (0 = disabled)")
	driftSample := flag.Int("drift-sample", 2000, "fresh-sample cap per drift re-probe")
	driftPSIWarn := flag.Float64("drift-psi-warn", 0.25, "per-attribute PSI at or above which a drift tick is a breach")
	refreshInterval := flag.Duration("refresh-interval", 0, "re-learn the model at this interval and hot-swap it in after validation (0 = drift-triggered only)")
	refreshOnBreach := flag.Bool("refresh-on-breach", true, "re-learn and hot-swap when the drift monitor breaches (needs -drift-interval)")
	refreshBackoff := flag.Duration("refresh-backoff", 30*time.Second, "base backoff after a failed or rejected re-learn, doubled per consecutive failure with full jitter")
	refreshBackoffMax := flag.Duration("refresh-backoff-max", 15*time.Minute, "backoff cap between re-learn attempts")
	refreshShadowSample := flag.Int("refresh-shadow-sample", 64, "recent audited queries replayed against a candidate model before promotion (needs -audit-log; negative disables validation)")
	refreshMaxZeroRise := flag.Float64("refresh-max-zero-rise", 0.25, "reject a candidate whose shadow-replay zero-answer rate rises more than this")
	refreshMaxSimDrop := flag.Float64("refresh-max-sim-drop", 0.10, "reject a candidate whose shadow-replay mean similarity drops more than this")
	modelKeep := flag.Int("model-keep", 2, "previous model generations kept beside -model on promote (rollback restores the newest)")
	refreshProbation := flag.Int("refresh-probation", 200, "computed answers watched after a promote; a zero-answer collapse inside the window rolls the model back (0 = no auto-rollback)")
	refreshRollbackZeroRate := flag.Float64("refresh-rollback-zero-rate", 0.6, "post-promote zero-answer rate at or above which the promote is rolled back")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	showVersion := flag.Bool("version", false, "print version and exit")
	modelInfo := flag.Bool("model-info", false, "print the model's fingerprint, learn timestamp and age, then exit (loads or learns the model first)")
	flag.Parse()

	if *showVersion {
		fmt.Printf("aimq-serve %s (%s)\n", version.Version, version.GoVersion())
		return
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if err := run(config{
		data: *data, source: *source, model: *modelPath, addr: *addr,
		debugAddr: *debugAddr,
		k:         *k, maxK: *maxK, tsim: *tsim, cacheSize: *cacheSize,
		cacheTTL: *cacheTTL,
		timeout:  *timeout, drain: *drain, maxQPB: *maxQPB,
		sampleSize: *sampleSize, terr: *terr, seed: *seed, probeWorkers: *probeWorkers,
		prune: *prune, keyPruneErr: *keyPruneErr, cacheSnapshot: *cacheSnapshot,
		traceRing: *traceRing, traceSample: *traceSample,
		flightThreshold: *flightThreshold, flightRing: *flightRing,
		slowQuery: *slowQuery,
		resilient: *resilient, retryAttempts: *retryAttempts, retryBase: *retryBase,
		breakerFailures: *breakerFailures, breakerOpen: *breakerOpen,
		failDegrade: *failDegrade,
		auditLog:    *auditLog, auditSample: *auditSample,
		auditMaxBytes: *auditMaxBytes, auditMaxAge: *auditMaxAge,
		driftInterval: *driftInterval, driftSample: *driftSample,
		driftPSIWarn:        *driftPSIWarn,
		refreshInterval:     *refreshInterval,
		refreshOnBreach:     *refreshOnBreach,
		refreshBackoff:      *refreshBackoff,
		refreshBackoffMax:   *refreshBackoffMax,
		refreshShadowSample: *refreshShadowSample,
		refreshMaxZeroRise:  *refreshMaxZeroRise,
		refreshMaxSimDrop:   *refreshMaxSimDrop,
		modelKeep:           *modelKeep,
		refreshProbation:    *refreshProbation,
		refreshZeroRate:     *refreshRollbackZeroRate,
		modelInfo:           *modelInfo,
	}, logger); err != nil {
		fmt.Fprintln(os.Stderr, "aimq-serve:", err)
		os.Exit(1)
	}
}

type config struct {
	data, source, model, addr  string
	debugAddr                  string
	k, maxK, cacheSize, maxQPB int
	tsim, terr                 float64
	timeout, drain             time.Duration
	sampleSize, probeWorkers   int
	seed                       int64
	traceRing                  int
	traceSample                int
	flightThreshold            time.Duration
	flightRing                 int
	slowQuery                  time.Duration
	cacheTTL                   time.Duration
	resilient                  bool
	retryAttempts              int
	retryBase                  time.Duration
	breakerFailures            int
	breakerOpen                time.Duration
	failDegrade                bool
	prune                      bool
	keyPruneErr                float64
	cacheSnapshot              string
	auditLog                   string
	auditSample                int
	auditMaxBytes              int64
	auditMaxAge                time.Duration
	driftInterval              time.Duration
	driftSample                int
	driftPSIWarn               float64
	refreshInterval            time.Duration
	refreshOnBreach            bool
	refreshBackoff             time.Duration
	refreshBackoffMax          time.Duration
	refreshShadowSample        int
	refreshMaxZeroRise         float64
	refreshMaxSimDrop          float64
	modelKeep                  int
	refreshProbation           int
	refreshZeroRate            float64
	modelInfo                  bool
}

func run(c config, logger *slog.Logger) error {
	logger.Info("aimq-serve starting", "version", version.Version, "go", version.GoVersion())

	// -model-info over a saved snapshot needs no source at all; only fall
	// through to the full learn path when asked to build one.
	if c.modelInfo && c.data == "" && c.source == "" {
		if c.model == "" {
			return fmt.Errorf("-model-info needs -model (or -data/-source to learn one)")
		}
		snap, err := model.Load(c.model)
		if err != nil {
			return err
		}
		printModelInfo(service.ModelInfo{
			Fingerprint:   snap.Fingerprint(),
			LearnedAtUnix: snap.LearnedAtUnix,
			SampleSize:    snap.SampleSize,
			Pivot:         snap.Pivot,
		})
		return nil
	}

	var src webdb.Source
	switch {
	case c.data != "":
		rel, err := relation.LoadCSV(c.data)
		if err != nil {
			return err
		}
		logger.Info("serving local relation",
			"tuples", rel.Size(), "schema", rel.Schema().String(), "file", c.data)
		src = webdb.NewLocal(rel)
	case c.source != "":
		client, err := webdb.NewClient(c.source, nil)
		if err != nil {
			return err
		}
		logger.Info("answering over remote source",
			"url", c.source, "schema", client.Schema().String())
		src = client
	default:
		return fmt.Errorf("need -data or -source")
	}

	if c.resilient {
		src = webdb.NewResilient(src, webdb.ResilientConfig{
			Retry: webdb.RetryPolicy{
				MaxAttempts: c.retryAttempts,
				BaseDelay:   c.retryBase,
			},
			Breaker: webdb.BreakerConfig{
				FailureThreshold: c.breakerFailures,
				OpenTimeout:      c.breakerOpen,
			},
		})
		logger.Info("resilience middleware on",
			"retry_attempts", c.retryAttempts, "retry_base", c.retryBase,
			"breaker_failures", c.breakerFailures, "breaker_open", c.breakerOpen)
	}

	start := time.Now()
	lc := service.LearnConfig{
		Seed:       c.seed,
		SampleSize: c.sampleSize,
		Terr:       c.terr,
		Workers:    c.probeWorkers,
	}
	m, err := service.LoadOrBuildModel(c.model, src, lc)
	if err != nil {
		return err
	}
	info := m.Info()
	if c.modelInfo {
		printModelInfo(info)
		return nil
	}
	learnStats := m.Stats
	if m.Built {
		logger.Info("learned model", "elapsed", time.Since(start).Round(time.Millisecond),
			"probed_tuples", learnStats.ProbedTuples, "sample", learnStats.SampleSize,
			"afds", learnStats.AFDs, "akeys", learnStats.AKeys,
			"fingerprint", info.Fingerprint)
		if c.model != "" {
			logger.Info("model saved", "path", c.model)
		}
	} else {
		logger.Info("model loaded", "path", c.model,
			"elapsed", time.Since(start).Round(time.Millisecond),
			"fingerprint", info.Fingerprint)
	}

	engCfg := core.Config{
		K:                 c.k,
		Tsim:              c.tsim,
		MaxQueriesPerBase: c.maxQPB,
		OnFailure:         core.FailAbort,
		DisablePruning:    !c.prune,
		KeyPruneMaxError:  c.keyPruneErr,
	}
	if c.failDegrade {
		engCfg.OnFailure = core.FailDegrade
	}
	var auditW *audit.Writer
	if c.auditLog != "" {
		auditW, err = audit.NewWriter(audit.Config{
			Path:       c.auditLog,
			SampleRate: c.auditSample,
			MaxBytes:   c.auditMaxBytes,
			MaxAge:     c.auditMaxAge,
			Header: audit.Header{
				Service:            version.Version,
				ModelFingerprint:   info.Fingerprint,
				ModelLearnedAtUnix: info.LearnedAtUnix,
				Engine:             audit.EngineConfigOf(engCfg),
			},
		})
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer func() {
			if cerr := auditW.Close(); cerr != nil {
				logger.Warn("audit log close failed", "error", cerr)
			}
			st := auditW.Stats()
			logger.Info("audit log closed", "path", c.auditLog,
				"written", st.Written, "dropped", st.Dropped, "rotations", st.Rotations)
		}()
		logger.Info("audit log on", "path", c.auditLog,
			"sample", c.auditSample, "max_bytes", c.auditMaxBytes, "max_age", c.auditMaxAge)
	}

	svc := service.New(src, m.Est, &core.Guided{Ord: m.Ord}, service.Config{
		Engine:          engCfg,
		CacheSize:       c.cacheSize,
		CacheTTL:        c.cacheTTL,
		RequestTimeout:  c.timeout,
		MaxK:            c.maxK,
		TraceRing:       c.traceRing,
		TraceSample:     c.traceSample,
		FlightThreshold: c.flightThreshold,
		FlightRing:      c.flightRing,
		SlowQuery:       c.slowQuery,
		Logger:          logger,
		Audit:           auditW,
	})
	svc.SetLearnStats(learnStats)
	svc.SetModelInfo(info)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var mon *drift.Monitor
	if c.driftInterval > 0 {
		if m.Snap == nil || m.Snap.Drift == nil {
			logger.Warn("drift monitoring requested but the model has no drift baseline (snapshot predates drift profiles); re-learn to enable")
		} else {
			mon = drift.NewMonitor(src, m.Snap.Drift, drift.MonitorConfig{
				Interval:     c.driftInterval,
				SampleLimit:  c.driftSample,
				PSIWarn:      c.driftPSIWarn,
				Seed:         c.seed,
				ProbeWorkers: c.probeWorkers,
			})
			svc.AttachDriftMonitor(mon)
			logger.Info("drift monitor on", "interval", c.driftInterval,
				"sample", c.driftSample, "psi_warn", c.driftPSIWarn)
		}
	}

	// The self-healing loop: breaches (and/or a timer) re-learn the model in
	// the background, shadow-validate it, persist it with generation keeping
	// and hot-swap it in — never disturbing in-flight answers.
	if c.refreshInterval > 0 || (mon != nil && c.refreshOnBreach) {
		ctl := lifecycle.New(svc, src,
			func() (*service.Model, error) { return service.BuildModel(src, lc) },
			lifecycle.Config{
				Interval: c.refreshInterval,
				Retry: webdb.RetryPolicy{
					BaseDelay: c.refreshBackoff,
					MaxDelay:  c.refreshBackoffMax,
				},
				ShadowSample:      c.refreshShadowSample,
				MaxZeroRise:       c.refreshMaxZeroRise,
				MaxSimDrop:        c.refreshMaxSimDrop,
				AuditPath:         c.auditLog,
				Engine:            engCfg,
				ModelPath:         c.model,
				Keep:              c.modelKeep,
				ProbationWindow:   c.refreshProbation,
				ProbationZeroRate: c.refreshZeroRate,
				Logger:            logger,
			})
		ctl.SetServing(m)
		if mon != nil && c.refreshOnBreach {
			ctl.AttachMonitor(mon)
		}
		svc.AttachLifecycle(ctl)
		go ctl.Run(ctx)
		logger.Info("model refresh controller on",
			"interval", c.refreshInterval, "on_breach", mon != nil && c.refreshOnBreach,
			"shadow_sample", c.refreshShadowSample, "model_keep", c.modelKeep,
			"probation", c.refreshProbation)
	}
	if mon != nil {
		go mon.Run(ctx)
	}

	if c.cacheSnapshot != "" {
		if snap, err := service.LoadCacheSnapshot(c.cacheSnapshot); err == nil {
			warmStart := time.Now()
			warmed, werr := svc.WarmCache(ctx, snap)
			logger.Info("cache warmed from snapshot", "path", c.cacheSnapshot,
				"entries", len(snap.Entries), "warmed", warmed,
				"elapsed", time.Since(warmStart).Round(time.Millisecond))
			if werr != nil && !errors.Is(werr, context.Canceled) {
				logger.Warn("cache warming stopped early", "error", werr)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			logger.Warn("cache snapshot unreadable, starting cold", "path", c.cacheSnapshot, "error", err)
		}
	}

	if c.debugAddr != "" {
		dbg := &http.Server{Addr: c.debugAddr, Handler: svc.DebugHandler()}
		go func() {
			logger.Info("debug surface listening", "addr", c.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutCtx)
		}()
	}

	logger.Info("answering", "addr", c.addr, "cache_entries", c.cacheSize,
		"timeout", c.timeout, "trace_ring", c.traceRing, "trace_sample", c.traceSample,
		"flight_threshold", c.flightThreshold, "slow_query", c.slowQuery)
	err = svc.Run(ctx, c.addr, c.drain)
	if err == nil {
		logger.Info("drained and stopped")
	}
	if c.cacheSnapshot != "" {
		snap := svc.SnapshotCache(0)
		if serr := service.SaveCacheSnapshot(c.cacheSnapshot, snap); serr != nil {
			logger.Warn("cache snapshot not saved", "path", c.cacheSnapshot, "error", serr)
		} else {
			logger.Info("cache snapshot saved", "path", c.cacheSnapshot, "entries", len(snap.Entries))
		}
	}
	return err
}

// printModelInfo renders the -model-info identity card.
func printModelInfo(info service.ModelInfo) {
	fmt.Printf("fingerprint  %s\n", info.Fingerprint)
	if !info.LearnedAt().IsZero() {
		fmt.Printf("learned_at   %s\n", info.LearnedAt().UTC().Format(time.RFC3339))
		fmt.Printf("age          %s\n", time.Since(info.LearnedAt()).Round(time.Second))
	}
	if info.SampleSize != 0 {
		fmt.Printf("sample_size  %d\n", info.SampleSize)
	}
	if info.Pivot != "" {
		fmt.Printf("pivot        %s\n", info.Pivot)
	}
	fmt.Printf("built        %t\n", info.Built)
}
