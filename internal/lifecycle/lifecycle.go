// Package lifecycle closes the loop between the drift monitor, the offline
// learner and the serving tier: a background controller re-learns the model
// when drift breaches (or on a timer), shadow-validates the candidate
// against recent audited queries, persists it with generation keeping, and
// atomically promotes it into the service — rolling back to the previous
// model if post-promote quality collapses. Every failure mode leaves the
// old model serving: a refresh can be late, never harmful.
//
// State machine (surfaced as RefreshStats.State):
//
//	idle ──trigger/interval──▶ learning ──▶ validating ──▶ promoting ──▶ idle
//	  ▲                           │              │             │(probation
//	  │                           ▼              ▼             ▼  breach)
//	  └────────────────────── backoff ◀──── rejected       rollback
//
// A failed re-learn or a rejected candidate backs off exponentially
// (webdb.RetryPolicy semantics: exponential, jittered, capped); triggers
// arriving during backoff coalesce and run when the backoff expires.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/drift"
	"aimq/internal/model"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// Config tunes the refresh controller. Zero values select serving defaults.
type Config struct {
	// Interval triggers a periodic re-learn; 0 = trigger-only (drift
	// breaches and explicit TriggerRefresh calls).
	Interval time.Duration
	// Retry shapes the backoff after a failed or rejected attempt. Only the
	// delay fields are used (BaseDelay default 30s, MaxDelay default 15m);
	// the controller never gives up, it just waits longer — the old model
	// keeps serving meanwhile.
	Retry webdb.RetryPolicy
	// ShadowSample caps how many recent audited queries are replayed against
	// a candidate before promotion (deduplicated by normalized key, newest
	// first). Default 64; negative disables shadow validation entirely.
	ShadowSample int
	// MaxZeroRise rejects a candidate whose replayed zero-answer rate
	// exceeds the recorded rate by more than this. Default 0.25.
	MaxZeroRise float64
	// MaxSimDrop rejects a candidate whose mean answer Sim falls below the
	// recorded mean by more than this. Default 0.10.
	MaxSimDrop float64
	// AuditPath is the audit log sampled for shadow validation; "" skips
	// validation (every candidate is accepted).
	AuditPath string
	// Engine carries the serving engine defaults for shadow replays (k and
	// Tsim come from each recorded event).
	Engine core.Config
	// ModelPath is where promoted snapshots are persisted (atomic
	// tmp+rename); "" disables persistence.
	ModelPath string
	// Keep is how many previous model generations are kept on disk beside
	// ModelPath (model.SaveKeep); rollback restores the newest one.
	// Default 2.
	Keep int
	// ProbationWindow is how many computed answers are watched after a
	// promote; if the zero-answer rate over the window reaches
	// ProbationZeroRate, the promote is rolled back. 0 disables automatic
	// rollback.
	ProbationWindow int
	// ProbationZeroRate is the rollback threshold. Default 0.6.
	ProbationZeroRate float64
	// Logger receives the controller's structured log. Default slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Retry.BaseDelay == 0 {
		c.Retry.BaseDelay = 30 * time.Second
	}
	if c.Retry.MaxDelay == 0 {
		c.Retry.MaxDelay = 15 * time.Minute
	}
	if c.ShadowSample == 0 {
		c.ShadowSample = 64
	}
	if c.MaxZeroRise == 0 {
		c.MaxZeroRise = 0.25
	}
	if c.MaxSimDrop == 0 {
		c.MaxSimDrop = 0.10
	}
	if c.Keep == 0 {
		c.Keep = 2
	}
	if c.ProbationZeroRate == 0 {
		c.ProbationZeroRate = 0.6
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Controller drives the model refresh loop for one service. Construct with
// New, wire triggers (AttachMonitor and/or Config.Interval), then start Run
// in a goroutine. Safe for concurrent use with serving.
type Controller struct {
	svc *service.Service
	// src is the serving source, replayed against during shadow validation.
	src webdb.Source
	// learn produces a candidate model; typically a closure over
	// service.BuildModel with the startup LearnConfig. It may read a
	// different source handle than src (tests inject chaos into the learn
	// path only).
	learn func() (*service.Model, error)
	cfg   Config
	log   *slog.Logger

	// mon, when attached, is rebased onto each promoted model's drift
	// profile so PSI is measured against the data the serving model was
	// actually mined from. Set before Run.
	mon *drift.Monitor

	// newTarget overrides shadow validation's replay target construction;
	// nil (always, outside tests) replays through an audit.EngineTarget
	// over the serving source.
	newTarget func(m *service.Model) audit.Target

	// trigger coalesces refresh requests: capacity 1, non-blocking send.
	// One refresh runs at a time (single-flight is structural — only Run's
	// goroutine drains the channel).
	trigger chan string
	// probationC delivers a post-promote quality breach from the answer
	// observer to Run's goroutine, which performs the rollback.
	probationC chan string

	attempts  atomic.Int64
	promoted  atomic.Int64
	unchanged atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64
	rollbacks atomic.Int64
	// consecFail counts failed/rejected attempts since the last success;
	// the backoff exponent.
	consecFail atomic.Int64

	mu           sync.Mutex
	state        string
	lastReason   string
	lastErr      error
	lastAt       time.Time
	lastDur      time.Duration
	backoffUntil time.Time
	backoffDur   time.Duration
	// prev is the last-known-good model displaced by the most recent
	// promote — the rollback target. cur is the model serving now.
	prev *service.Model
	cur  *service.Model
}

// New builds a controller over svc. src is the serving source (shadow
// replays run against it); learn produces candidate models.
func New(svc *service.Service, src webdb.Source, learn func() (*service.Model, error), cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		svc:        svc,
		src:        src,
		learn:      learn,
		cfg:        cfg,
		log:        cfg.Logger,
		state:      "idle",
		trigger:    make(chan string, 1),
		probationC: make(chan string, 1),
	}
}

// AttachMonitor wires a drift monitor: its breaches trigger refreshes, and
// each promote rebases its baseline onto the new model's drift profile.
// Chains any OnBreach already installed. Call before Run (and before the
// monitor's own Run).
func (c *Controller) AttachMonitor(mon *drift.Monitor) {
	c.mon = mon
	prev := mon.OnBreach
	mon.OnBreach = func(r *drift.Report) {
		if prev != nil {
			prev(r)
		}
		c.TriggerRefresh("drift breach")
	}
}

// SetServing records the model the service booted with, making it the
// rollback anchor for the first promote. Call once at startup.
func (c *Controller) SetServing(m *service.Model) {
	c.mu.Lock()
	c.cur = m
	c.mu.Unlock()
}

// TriggerRefresh requests an asynchronous refresh. Requests coalesce: while
// one is pending or running, at most one more is queued. Returns false when
// the request was coalesced into an already-pending one.
func (c *Controller) TriggerRefresh(reason string) bool {
	select {
	case c.trigger <- reason:
		return true
	default:
		return false
	}
}

// Run drives the controller until ctx is cancelled: interval ticks and
// breach triggers start refresh attempts (honoring backoff), probation
// breaches roll back. All model mutations happen on this goroutine.
func (c *Controller) Run(ctx context.Context) {
	var tick <-chan time.Time
	if c.cfg.Interval > 0 {
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case reason := <-c.probationC:
			c.Rollback(reason)
		case reason := <-c.trigger:
			if !c.sleepBackoff(ctx) {
				return
			}
			_ = c.RefreshOnce(ctx, reason)
		case <-tick:
			if c.backoffRemaining() > 0 {
				continue // the ticker comes around again; triggers still wait it out
			}
			_ = c.RefreshOnce(ctx, "interval")
		}
	}
}

// sleepBackoff waits out any active backoff, still servicing probation
// breaches meanwhile. Returns false when ctx was cancelled.
func (c *Controller) sleepBackoff(ctx context.Context) bool {
	for {
		d := c.backoffRemaining()
		if d <= 0 {
			return true
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return false
		case reason := <-c.probationC:
			timer.Stop()
			c.Rollback(reason)
		case <-timer.C:
		}
	}
}

func (c *Controller) backoffRemaining() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Until(c.backoffUntil)
}

// RefreshOnce runs one complete refresh attempt synchronously: re-learn,
// shadow-validate, persist, promote, arm probation. Exported for tests and
// the bench harness; Run uses it too. Never returns a nil-model success —
// every outcome is counted in exactly one of promoted/unchanged/rejected/
// failed.
func (c *Controller) RefreshOnce(ctx context.Context, reason string) error {
	start := time.Now()
	c.attempts.Add(1)
	c.setState("learning", reason)

	m, err := c.learn()
	if err == nil && (m == nil || m.Est == nil || m.Ord == nil) {
		err = errors.New("learner returned an incomplete model")
	}
	if err != nil {
		return c.finishFail(start, reason, &c.failed, fmt.Errorf("re-learn: %w", err))
	}
	if err := ctx.Err(); err != nil {
		return c.finishFail(start, reason, &c.failed, err)
	}

	// Identical artifacts: the source still looks like what we learned last
	// time. No swap, no cache flush — just refresh the drift baseline (and
	// the on-disk provenance) so the monitor stops comparing against a
	// sample that is no longer representative.
	if cur, ok := c.svc.ModelInfo(); ok && m.Snap != nil && cur.Fingerprint == m.Snap.Fingerprint() {
		c.rebase(m)
		if c.cfg.ModelPath != "" {
			if err := model.Save(c.cfg.ModelPath, m.Snap); err != nil {
				c.log.Warn("model refresh: persisting unchanged snapshot failed", "error", err)
			}
		}
		c.mu.Lock()
		c.cur = m
		c.mu.Unlock()
		c.unchanged.Add(1)
		c.finishOK(start, reason)
		c.log.Info("model refresh: artifacts unchanged, baseline rebased",
			"fingerprint", cur.Fingerprint, "reason", reason)
		return nil
	}

	c.setState("validating", reason)
	rep, err := c.shadowValidate(m)
	if err != nil {
		return c.finishFail(start, reason, &c.failed, fmt.Errorf("shadow validation: %w", err))
	}
	if rep != nil && !rep.Accept {
		return c.finishFail(start, reason, &c.rejected,
			fmt.Errorf("candidate rejected: %s", rep.Reason))
	}

	// Persist before promoting: if the process dies right after the swap,
	// the next boot loads the model that was serving — and the rotated
	// previous generation is already on disk for Rollback.
	if c.cfg.ModelPath != "" && m.Snap != nil {
		if err := model.SaveKeep(c.cfg.ModelPath, m.Snap, c.cfg.Keep); err != nil {
			c.log.Warn("model refresh: persist failed; promoting in-memory only", "error", err)
		}
	}

	c.setState("promoting", reason)
	gen := c.svc.Promote(m.Est, &core.Guided{Ord: m.Ord}, m.Info())
	c.rebase(m)
	c.mu.Lock()
	c.prev, c.cur = c.cur, m
	c.mu.Unlock()
	c.promoted.Add(1)
	c.startProbation(gen)
	c.finishOK(start, reason)
	var shadowNote string
	if rep != nil {
		shadowNote = rep.Reason
	}
	promotedLog := []any{
		"generation", gen, "fingerprint", m.Info().Fingerprint,
		"reason", reason, "shadow", shadowNote,
		"elapsed_ms", float64(time.Since(start).Microseconds()) / 1000,
	}
	// Surface the mining-core profile of the re-learn so an expensive refresh
	// can be diagnosed from the log alone (the full LearnStats lives at
	// /debug/learn only for the serving model).
	if st := m.Stats; st != nil {
		promotedLog = append(promotedLog,
			"mine_products", st.ProductsComputed,
			"mine_cache_hits", st.PartitionCacheHits,
			"mine_peak_partition_bytes", st.PeakPartitionBytes,
			"mine_workers", st.MineWorkers)
	}
	c.log.Info("model promoted", promotedLog...)
	return nil
}

// rebase points the drift monitor at the model's own probe-sample profile.
func (c *Controller) rebase(m *service.Model) {
	if c.mon != nil && m.Snap != nil && m.Snap.Drift != nil {
		c.mon.SetBaseline(m.Snap.Drift)
	}
}

// Rollback restores the last-known-good model: promotes the previous pack,
// rebases the drift baseline, restores the previous on-disk generation, and
// arms a backoff so the very next trigger doesn't immediately re-promote
// the same bad candidate. Returns false when there is nothing to roll back
// to.
func (c *Controller) Rollback(reason string) bool {
	c.mu.Lock()
	prev := c.prev
	c.mu.Unlock()
	if prev == nil || prev.Est == nil || prev.Ord == nil {
		c.log.Warn("model rollback requested but no previous model retained", "reason", reason)
		return false
	}
	c.svc.SetAnswerObserver(nil)
	gen := c.svc.Promote(prev.Est, &core.Guided{Ord: prev.Ord}, prev.Info())
	c.rebase(prev)
	if c.cfg.ModelPath != "" {
		if _, err := model.Rollback(c.cfg.ModelPath); err != nil {
			c.log.Warn("model rollback: restoring on-disk generation failed", "error", err)
		}
	}
	c.mu.Lock()
	c.cur = prev
	c.prev = nil
	c.mu.Unlock()
	c.rollbacks.Add(1)
	c.armBackoff()
	c.setState("idle", reason)
	c.mu.Lock()
	c.lastErr = errors.New(reason)
	c.mu.Unlock()
	c.log.Warn("model rolled back to previous generation",
		"generation", gen, "fingerprint", prev.Info().Fingerprint, "reason", reason)
	return true
}

// startProbation installs an answer observer that watches the first
// ProbationWindow computed answers of the new generation; a zero-answer
// rate at or above the threshold signals Run to roll back.
func (c *Controller) startProbation(gen uint64) {
	if c.cfg.ProbationWindow <= 0 {
		return
	}
	c.svc.SetAnswerObserver(c.probationObserver(gen))
}

// probationObserver builds the per-promote quality watchdog closure.
func (c *Controller) probationObserver(gen uint64) service.AnswerObserver {
	var total, zeros atomic.Int64
	var done atomic.Bool
	window := int64(c.cfg.ProbationWindow)
	limit := c.cfg.ProbationZeroRate
	return func(g uint64, answers int, simSum float64) {
		if g != gen || done.Load() {
			return
		}
		if answers == 0 {
			zeros.Add(1)
		}
		if t := total.Add(1); t >= window && done.CompareAndSwap(false, true) {
			rate := float64(zeros.Load()) / float64(t)
			if rate >= limit {
				select {
				case c.probationC <- fmt.Sprintf(
					"probation breach: zero-answer rate %.2f >= %.2f over %d computed answers", rate, limit, t):
				default:
				}
				return
			}
			// Probation passed: stop observing (the observer is this very
			// closure; swapping it out mid-call is safe, it's an atomic
			// pointer store).
			c.svc.SetAnswerObserver(nil)
			c.log.Info("model probation passed",
				"generation", gen, "zero_answer_rate", rate, "window", t)
		}
	}
}

func (c *Controller) setState(state, reason string) {
	c.mu.Lock()
	c.state = state
	c.lastReason = reason
	c.mu.Unlock()
}

// finishOK records a successful attempt: counters reset, backoff cleared.
func (c *Controller) finishOK(start time.Time, reason string) {
	c.consecFail.Store(0)
	c.mu.Lock()
	c.state = "idle"
	c.lastReason = reason
	c.lastErr = nil
	c.lastAt = time.Now()
	c.lastDur = time.Since(start)
	c.backoffUntil = time.Time{}
	c.backoffDur = 0
	c.mu.Unlock()
}

// finishFail records a failed or rejected attempt and arms the backoff. The
// old model keeps serving — failure here only delays freshness.
func (c *Controller) finishFail(start time.Time, reason string, counter *atomic.Int64, err error) error {
	counter.Add(1)
	c.consecFail.Add(1)
	c.mu.Lock()
	c.lastReason = reason
	c.lastErr = err
	c.lastAt = time.Now()
	c.lastDur = time.Since(start)
	c.mu.Unlock()
	c.armBackoff()
	c.setState("backoff", reason)
	c.log.Warn("model refresh attempt failed; old model keeps serving",
		"reason", reason, "error", err,
		"consecutive_failures", c.consecFail.Load(),
		"backoff", c.backoffDuration())
	return err
}

// armBackoff sets the wait before the next attempt from the consecutive
// failure count, with RetryPolicy's jittered exponential shape.
func (c *Controller) armBackoff() {
	n := c.consecFail.Load()
	if n < 1 {
		n = 1
	}
	// Backoff(attempt, …) sleeps before the attempt *following* attempt n.
	d := c.cfg.Retry.Backoff(int(n), 0)
	c.mu.Lock()
	c.backoffDur = d
	c.backoffUntil = time.Now().Add(d)
	c.mu.Unlock()
}

func (c *Controller) backoffDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backoffDur
}

// RefreshStats implements service.RefreshReporter.
func (c *Controller) RefreshStats() service.RefreshStats {
	st := service.RefreshStats{
		Attempts:       c.attempts.Load(),
		Promoted:       c.promoted.Load(),
		Unchanged:      c.unchanged.Load(),
		Rejected:       c.rejected.Load(),
		Failed:         c.failed.Load(),
		Rollbacks:      c.rollbacks.Load(),
		ConsecFailures: c.consecFail.Load(),
	}
	c.mu.Lock()
	st.State = c.state
	st.LastReason = c.lastReason
	if c.lastErr != nil {
		st.LastError = c.lastErr.Error()
	}
	st.LastAt = c.lastAt
	st.LastDurationSeconds = c.lastDur.Seconds()
	if rem := time.Until(c.backoffUntil); rem > 0 {
		st.BackoffSeconds = rem.Seconds()
	} else if st.State == "backoff" {
		st.State = "idle" // backoff expired, nothing running
	}
	c.mu.Unlock()
	return st
}
