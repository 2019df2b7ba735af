// Package serve assembles aimq-serve's serving stack. Config holds every
// deployment setting and the library config each layer is built with,
// Defaults holds aimq-serve's defaults, Bind exposes each setting as one
// command-line flag, Build assembles the stack and Run serves it.
package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/drift"
	"aimq/internal/learn"
	"aimq/internal/lifecycle"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/version"
	"aimq/internal/webdb"
)

// Config is one aimq-serve deployment: where the source and model live,
// where to listen, and the config each layer is built with. A value two
// layers share is set in one field only; Build copies it to the other.
type Config struct {
	Data            string // CSV file served locally
	Source          string // base URL of a remote aimqd (when Data is "")
	Model           string // model snapshot: loaded when present, else learned and saved
	Addr            string
	DebugAddr       string // "" = no debug listener
	CacheSnapshot   string // "" = no cache warm or save
	Drain           time.Duration
	Resilient       bool // wrap the source in the Resilience middleware
	RefreshOnBreach bool // let a drift breach trigger a model refresh

	Resilience webdb.ResilientConfig
	Learn      learn.Config        // also the drift re-probe's seed and workers
	Service    service.Config      // Service.Engine also drives shadow replays and the audit header
	Audit      audit.Config        // Path "" = no audit log
	Drift      drift.MonitorConfig // Interval 0 = no drift monitor
	Lifecycle  lifecycle.Config    // refresh controller, on with Interval or a breach trigger
}

// Defaults returns aimq-serve's defaults. Fields left zero are off, or
// take the library's own default.
func Defaults() Config {
	return Config{
		Addr: ":8090", Drain: 10 * time.Second, Resilient: true, RefreshOnBreach: true,
		Resilience: webdb.ResilientConfig{
			Retry:   webdb.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
			Breaker: webdb.BreakerConfig{FailureThreshold: 5, OpenTimeout: 10 * time.Second},
		},
		Learn: learn.Config{Seed: 1, Terr: 0.15, Workers: 1},
		Service: service.Config{
			Engine:    core.Config{K: 10, Tsim: 0.5, OnFailure: core.FailDegrade},
			CacheSize: 1024, RequestTimeout: 30 * time.Second, MaxK: 100,
			TraceRing: 64, SlowQuery: 500 * time.Millisecond,
		},
		Audit: audit.Config{MaxBytes: 64 << 20},
		Drift: drift.MonitorConfig{SampleLimit: 2000, PSIWarn: 0.25},
		Lifecycle: lifecycle.Config{
			Retry:        webdb.RetryPolicy{BaseDelay: 30 * time.Second, MaxDelay: 15 * time.Minute},
			ShadowSample: 64, MaxZeroRise: 0.25, MaxSimDrop: 0.10, Keep: 2,
			ProbationWindow: 200, ProbationZeroRate: 0.6,
		},
	}
}

// Bind registers one flag per setting on fs. Each flag sets exactly one
// field of c, and its default is that field's value when Bind is called.
func (c *Config) Bind(fs *flag.FlagSet) {
	e, r, l := &c.Service.Engine, &c.Resilience, &c.Lifecycle
	fs.StringVar(&c.Data, "data", c.Data, "CSV file to serve answers over")
	fs.StringVar(&c.Source, "source", c.Source, "base URL of a remote aimqd source (alternative to -data)")
	fs.StringVar(&c.Model, "model", c.Model, "model snapshot path: loaded when present, else learned and saved here")
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.StringVar(&c.DebugAddr, "debug-addr", c.DebugAddr, "private listen address for pprof/expvar/traces ('' = disabled)")
	fs.IntVar(&e.K, "k", e.K, "default answers per query")
	fs.IntVar(&c.Service.MaxK, "max-k", c.Service.MaxK, "cap on client-requested k")
	fs.Float64Var(&e.Tsim, "tsim", e.Tsim, "default similarity threshold")
	fs.IntVar(&c.Service.CacheSize, "cache", c.Service.CacheSize, "LRU answer cache entries")
	fs.DurationVar(&c.Service.CacheTTL, "cache-ttl", c.Service.CacheTTL, "answer freshness window; expired entries are served marked stale while the source is degraded (0 = never expire)")
	fs.DurationVar(&c.Service.RequestTimeout, "timeout", c.Service.RequestTimeout, "per-request answer deadline")
	fs.BoolVar(&c.Resilient, "resilient", c.Resilient, "wrap the source in retry + circuit-breaker middleware")
	fs.IntVar(&r.Retry.MaxAttempts, "retry-attempts", r.Retry.MaxAttempts, "attempts per source query, including the first (with -resilient)")
	fs.DurationVar(&r.Retry.BaseDelay, "retry-base", r.Retry.BaseDelay, "base backoff between retries, doubled per attempt with full jitter (with -resilient)")
	fs.IntVar(&r.Breaker.FailureThreshold, "breaker-failures", r.Breaker.FailureThreshold, "consecutive source failures that open the circuit breaker (with -resilient)")
	fs.DurationVar(&r.Breaker.OpenTimeout, "breaker-open", r.Breaker.OpenTimeout, "how long an open breaker sheds load before half-open probing (with -resilient)")
	fs.Var(boolAs[core.FailurePolicy]{&e.OnFailure, core.FailDegrade, core.FailAbort}, "fail-degrade", "return partial ranked results when relaxation queries fail (false = abort the request)")
	fs.DurationVar(&c.Drain, "drain", c.Drain, "graceful shutdown drain budget")
	fs.IntVar(&e.MaxQueriesPerBase, "max-queries-per-base", e.MaxQueriesPerBase, "cap relaxation queries per base tuple (0 = unlimited)")
	fs.IntVar(&c.Learn.SampleSize, "sample", c.Learn.SampleSize, "cap the learning sample (0 = all)")
	fs.Float64Var(&c.Learn.Terr, "terr", c.Learn.Terr, "TANE error threshold for learning")
	fs.Int64Var(&c.Learn.Seed, "seed", c.Learn.Seed, "probing/sampling seed")
	fs.IntVar(&c.Learn.Workers, "probe-workers", c.Learn.Workers, "offline-phase workers while learning: spanning probes in flight, TANE level workers, supertuple-build goroutines and the VSim pair sweep (the model is identical at any count)")
	fs.Var(boolAs[bool]{&e.DisablePruning, false, true}, "prune", "skip relaxation queries whose Sim upper bound is already below tsim")
	fs.Float64Var(&e.KeyPruneMaxError, "key-prune-max-error", e.KeyPruneMaxError, "also skip relaxation queries that keep the mined best key bound, when the key's g3 error is at or below this (0 = exact keys only)")
	fs.StringVar(&c.CacheSnapshot, "cache-snapshot", c.CacheSnapshot, "path for the hot-query cache snapshot: warmed from at startup, rewritten at shutdown ('' = disabled)")
	fs.IntVar(&c.Service.TraceRing, "trace-ring", c.Service.TraceRing, "traces kept by /debug/traces (recent and slowest each; negative disables)")
	fs.IntVar(&c.Service.TraceSample, "trace-sample", c.Service.TraceSample, "head-sample 1 in N computed answers into the trace ring (<2 = every one)")
	fs.DurationVar(&c.Service.SlowQuery, "slow-query", c.Service.SlowQuery, "log answers slower than this at WARN (negative disables)")
	fs.StringVar(&c.Audit.Path, "audit-log", c.Audit.Path, "durable query audit log path (JSONL wide events; '' = disabled)")
	fs.IntVar(&c.Audit.SampleRate, "audit-sample", c.Audit.SampleRate, "audit 1 in N computed answers (<2 = every one)")
	fs.Int64Var(&c.Audit.MaxBytes, "audit-max-bytes", c.Audit.MaxBytes, "rotate the audit log when it reaches this size")
	fs.DurationVar(&c.Audit.MaxAge, "audit-max-age", c.Audit.MaxAge, "rotate the audit log after this age (0 = size-only rotation)")
	fs.DurationVar(&c.Drift.Interval, "drift-interval", c.Drift.Interval, "re-probe the source and compare against the model's drift baseline at this interval (0 = disabled)")
	fs.IntVar(&c.Drift.SampleLimit, "drift-sample", c.Drift.SampleLimit, "fresh-sample cap per drift re-probe")
	fs.Float64Var(&c.Drift.PSIWarn, "drift-psi-warn", c.Drift.PSIWarn, "per-attribute PSI at or above which a drift tick is a breach")
	fs.DurationVar(&l.Interval, "refresh-interval", l.Interval, "re-learn the model at this interval and hot-swap it in after validation (0 = drift-triggered only)")
	fs.BoolVar(&c.RefreshOnBreach, "refresh-on-breach", c.RefreshOnBreach, "re-learn and hot-swap when the drift monitor breaches (needs -drift-interval)")
	fs.DurationVar(&l.Retry.BaseDelay, "refresh-backoff", l.Retry.BaseDelay, "base backoff after a failed or rejected re-learn, doubled per consecutive failure with full jitter")
	fs.DurationVar(&l.Retry.MaxDelay, "refresh-backoff-max", l.Retry.MaxDelay, "backoff cap between re-learn attempts")
	fs.IntVar(&l.ShadowSample, "refresh-shadow-sample", l.ShadowSample, "recent audited queries replayed against a candidate model before promotion (needs -audit-log; negative disables validation)")
	fs.Float64Var(&l.MaxZeroRise, "refresh-max-zero-rise", l.MaxZeroRise, "reject a candidate whose shadow-replay zero-answer rate rises more than this")
	fs.Float64Var(&l.MaxSimDrop, "refresh-max-sim-drop", l.MaxSimDrop, "reject a candidate whose shadow-replay mean similarity drops more than this")
	fs.IntVar(&l.Keep, "model-keep", l.Keep, "previous model generations kept beside -model on promote (rollback restores the newest)")
	fs.IntVar(&l.ProbationWindow, "refresh-probation", l.ProbationWindow, "computed answers watched after a promote; a zero-answer collapse inside the window rolls the model back (0 = no auto-rollback)")
	fs.Float64Var(&l.ProbationZeroRate, "refresh-rollback-zero-rate", l.ProbationZeroRate, "post-promote zero-answer rate at or above which the promote is rolled back")
}

// boolAs is a boolean flag over a field of another type: true stores on,
// false stores off.
type boolAs[T comparable] struct {
	p       *T
	on, off T
}

func (b boolAs[T]) IsBoolFlag() bool { return true }
func (b boolAs[T]) String() string   { return strconv.FormatBool(b.p != nil && *b.p == b.on) }
func (b boolAs[T]) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b.p = b.off
	if v {
		*b.p = b.on
	}
	return err
}

// resolve copies each value two layers share from the one field it is set
// in: the engine defaults to shadow replays and the audit header, the learn
// seed and workers to the drift re-probe, the audit and model paths to the
// refresh controller, and the logger to the service and the controller.
func (c Config) resolve(logger *slog.Logger) Config {
	c.Service.Logger, c.Lifecycle.Logger = logger, logger
	c.Lifecycle.Engine = c.Service.Engine
	c.Audit.Header.Service, c.Audit.Header.Engine = version.Version, audit.EngineConfigOf(c.Service.Engine)
	c.Drift.Seed, c.Drift.ProbeWorkers = c.Learn.Seed, c.Learn.Workers
	c.Lifecycle.AuditPath, c.Lifecycle.ModelPath = c.Audit.Path, c.Model
	return c
}

// Open connects the source (Data, else Source), wraps it in the resilience
// middleware when Resilient is set, and loads the model from Model, or
// learns it and saves it there. These are Build's first steps.
func Open(c Config, logger *slog.Logger) (webdb.Source, *service.Model, service.ModelInfo, error) {
	var src webdb.Source
	switch {
	case c.Data != "":
		rel, err := relation.LoadCSV(c.Data)
		if err != nil {
			return nil, nil, service.ModelInfo{}, err
		}
		logger.Info("serving local relation", "tuples", rel.Size(), "schema", rel.Schema().String(), "file", c.Data)
		src = webdb.NewLocal(rel)
	case c.Source != "":
		client, err := webdb.NewClient(c.Source, nil)
		if err != nil {
			return nil, nil, service.ModelInfo{}, err
		}
		logger.Info("answering over remote source", "url", c.Source, "schema", client.Schema().String())
		src = client
	default:
		return nil, nil, service.ModelInfo{}, fmt.Errorf("need -data or -source")
	}
	if r := c.Resilience; c.Resilient {
		src = webdb.NewResilient(src, r)
		logger.Info("resilience middleware on",
			"retry_attempts", r.Retry.MaxAttempts, "retry_base", r.Retry.BaseDelay,
			"breaker_failures", r.Breaker.FailureThreshold, "breaker_open", r.Breaker.OpenTimeout)
	}

	start := time.Now()
	m, err := service.LoadOrBuildModel(c.Model, src, c.Learn)
	if err != nil {
		return nil, nil, service.ModelInfo{}, err
	}
	elapsed, info := time.Since(start).Round(time.Millisecond), m.Info()
	if !m.Built {
		logger.Info("model loaded", "path", c.Model, "elapsed", elapsed, "fingerprint", info.Fingerprint)
		return src, m, info, nil
	}
	logger.Info("learned model", "elapsed", elapsed,
		"probed_tuples", m.Stats.ProbedTuples, "sample", m.Stats.SampleSize,
		"afds", m.Stats.AFDs, "akeys", m.Stats.AKeys, "fingerprint", info.Fingerprint)
	if c.Model != "" {
		logger.Info("model saved", "path", c.Model)
	}
	return src, m, info, nil
}

// Stack is one assembled aimq-serve, ready to Run.
type Stack struct {
	Service *service.Service

	cfg   Config
	audit *audit.Writer
	mon   *drift.Monitor
	ctl   *lifecycle.Controller
}

// Build assembles the stack in order: source, resilience, model (Open),
// then the audit log, the answering service, the drift monitor and the
// refresh controller. Nothing runs until Run.
func Build(c Config, logger *slog.Logger) (*Stack, error) {
	c = c.resolve(logger)
	src, m, info, err := Open(c, logger)
	if err != nil {
		return nil, err
	}
	s := &Stack{cfg: c}
	if c.Audit.Path != "" {
		c.Audit.Header.ModelFingerprint, c.Audit.Header.ModelLearnedAtUnix = info.Fingerprint, info.LearnedAtUnix
		if s.audit, err = audit.NewWriter(c.Audit); err != nil {
			return nil, fmt.Errorf("audit log: %w", err)
		}
		logger.Info("audit log on", "path", c.Audit.Path,
			"sample", c.Audit.SampleRate, "max_bytes", c.Audit.MaxBytes, "max_age", c.Audit.MaxAge)
	}
	c.Service.Audit = s.audit
	s.Service = service.New(src, m.Est, &core.Guided{Ord: m.Ord}, c.Service)
	s.Service.SetLearnStats(m.Stats)
	s.Service.SetModelInfo(info)

	switch {
	case c.Drift.Interval <= 0: // no drift monitor
	case m.Snap == nil || m.Snap.Drift == nil:
		logger.Warn("drift monitoring requested but the model has no drift baseline (snapshot predates drift profiles); re-learn to enable")
	default:
		s.mon = drift.NewMonitor(src, m.Snap.Drift, c.Drift)
		s.Service.AttachDriftMonitor(s.mon)
		logger.Info("drift monitor on", "interval", c.Drift.Interval,
			"sample", c.Drift.SampleLimit, "psi_warn", c.Drift.PSIWarn)
	}

	// The self-healing loop: breaches (and/or a timer) re-learn the model in
	// the background, shadow-validate it, persist it with generation keeping
	// and hot-swap it in — never disturbing in-flight answers.
	onBreach := s.mon != nil && c.RefreshOnBreach
	if l := c.Lifecycle; l.Interval > 0 || onBreach {
		s.ctl = lifecycle.New(s.Service, src,
			func() (*service.Model, error) { return service.BuildModel(src, c.Learn) }, l)
		s.ctl.SetServing(m)
		if onBreach {
			s.ctl.AttachMonitor(s.mon)
		}
		s.Service.AttachLifecycle(s.ctl)
		logger.Info("model refresh controller on", "interval", l.Interval, "on_breach", onBreach,
			"shadow_sample", l.ShadowSample, "model_keep", l.Keep, "probation", l.ProbationWindow)
	}
	return s, nil
}

// Run starts the drift and refresh loops, warms the answer cache from
// CacheSnapshot, serves Addr (and DebugAddr) until ctx is done, drains,
// saves the cache snapshot and closes the audit log.
func (s *Stack) Run(ctx context.Context) error {
	c, logger := s.cfg, s.cfg.Service.Logger
	if s.audit != nil {
		defer func() {
			if err := s.audit.Close(); err != nil {
				logger.Warn("audit log close failed", "error", err)
			}
			st := s.audit.Stats()
			logger.Info("audit log closed", "path", c.Audit.Path,
				"written", st.Written, "dropped", st.Dropped, "rotations", st.Rotations)
		}()
	}
	if s.ctl != nil {
		go s.ctl.Run(ctx)
	}
	if s.mon != nil {
		go s.mon.Run(ctx)
	}

	if c.CacheSnapshot != "" {
		if snap, err := service.LoadCacheSnapshot(c.CacheSnapshot); err == nil {
			start := time.Now()
			warmed, werr := s.Service.WarmCache(ctx, snap)
			logger.Info("cache warmed from snapshot", "path", c.CacheSnapshot,
				"entries", len(snap.Entries), "warmed", warmed,
				"elapsed", time.Since(start).Round(time.Millisecond))
			if werr != nil && !errors.Is(werr, context.Canceled) {
				logger.Warn("cache warming stopped early", "error", werr)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			logger.Warn("cache snapshot unreadable, starting cold", "path", c.CacheSnapshot, "error", err)
		}
	}

	if c.DebugAddr != "" {
		dbg := &http.Server{Addr: c.DebugAddr, Handler: s.Service.DebugHandler()}
		go func() {
			logger.Info("debug surface listening", "addr", c.DebugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		context.AfterFunc(ctx, func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutCtx)
		})
	}

	logger.Info("answering", "addr", c.Addr, "cache_entries", c.Service.CacheSize, "timeout", c.Service.RequestTimeout,
		"trace_ring", c.Service.TraceRing, "trace_sample", c.Service.TraceSample, "slow_query", c.Service.SlowQuery)
	err := s.Service.Run(ctx, c.Addr, c.Drain)
	if err == nil {
		logger.Info("drained and stopped")
	}
	if c.CacheSnapshot != "" {
		snap := s.Service.SnapshotCache(0)
		if serr := service.SaveCacheSnapshot(c.CacheSnapshot, snap); serr != nil {
			logger.Warn("cache snapshot not saved", "path", c.CacheSnapshot, "error", serr)
		} else {
			logger.Info("cache snapshot saved", "path", c.CacheSnapshot, "entries", len(snap.Entries))
		}
	}
	return err
}
