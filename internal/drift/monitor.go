package drift

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/probe"
	"aimq/internal/webdb"
)

// MonitorConfig tunes the background drift monitor. Zero values select
// defaults suitable for a long-lived serving process.
type MonitorConfig struct {
	// Interval between re-probes. Default 5m.
	Interval time.Duration
	// SampleLimit caps the fresh sample compared against the baseline (the
	// re-probe collects spanning coverage, then samples down). Default 2000.
	SampleLimit int
	// PSIWarn is the per-attribute PSI at or above which a tick counts as a
	// breach and fires OnBreach. Default 0.25 (the conventional
	// "major shift" threshold).
	PSIWarn float64
	// Seed drives the down-sampling RNG. Default 1.
	Seed int64
	// ProbeWorkers is the re-probe's spanning-query parallelism. Default 1.
	ProbeWorkers int
}

// maxBackoff caps the exponential backoff Run applies after consecutive
// re-probe failures (Interval, 2·Interval, 4·Interval, …) at this many
// Intervals: hammering an already-unhealthy source at the fixed tick only
// feeds its breaker.
const maxBackoff = 8

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Interval == 0 {
		c.Interval = 5 * time.Minute
	}
	if c.SampleLimit == 0 {
		c.SampleLimit = 2000
	}
	if c.PSIWarn == 0 {
		c.PSIWarn = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Monitor periodically re-probes a source and compares the fresh sample
// against a baseline Profile. Safe for concurrent use: Tick may be driven
// manually (tests) or by Run's loop, and Status may be read at any time
// (the /metrics and /debug/drift surfaces do).
type Monitor struct {
	src      webdb.Source
	baseline *Profile
	cfg      MonitorConfig

	// OnBreach, when set, fires after any tick whose report crosses
	// PSIWarn. Set before the first Tick/Run; called synchronously from the
	// ticking goroutine.
	OnBreach func(*Report)

	ticks       atomic.Int64
	breaches    atomic.Int64
	errs        atomic.Int64
	consecFails atomic.Int64

	mu      sync.Mutex
	rng     *rand.Rand
	last    *Report
	lastAt  time.Time
	lastErr error
}

// NewMonitor builds a monitor over src with the given baseline.
func NewMonitor(src webdb.Source, baseline *Profile, cfg MonitorConfig) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		src:      src,
		baseline: baseline,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Baseline returns the profile the monitor compares against.
func (m *Monitor) Baseline() *Profile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.baseline
}

// SetBaseline rebases the monitor onto a new profile. The model lifecycle
// controller calls this after promoting a re-learned model so drift is
// measured against the data the *serving* model was mined from, not the
// original boot-time sample (which would keep breaching forever).
func (m *Monitor) SetBaseline(p *Profile) {
	if p == nil {
		return
	}
	m.mu.Lock()
	m.baseline = p
	m.mu.Unlock()
}

// PSIWarn returns the breach threshold in effect.
func (m *Monitor) PSIWarn() float64 { return m.cfg.PSIWarn }

// Tick re-probes the source once, compares against the baseline, retains
// the report for Status, and fires OnBreach when the max PSI crosses the
// threshold.
func (m *Monitor) Tick() (*Report, error) {
	m.ticks.Add(1)
	rep, err := m.sampleAndCompare()
	m.mu.Lock()
	m.lastAt = time.Now()
	m.lastErr = err
	if err == nil {
		m.last = rep
	}
	m.mu.Unlock()
	if err != nil {
		m.errs.Add(1)
		m.consecFails.Add(1)
		return nil, err
	}
	m.consecFails.Store(0)
	if rep.MaxPSI >= m.cfg.PSIWarn {
		m.breaches.Add(1)
		if m.OnBreach != nil {
			m.OnBreach(rep)
		}
	}
	return rep, nil
}

func (m *Monitor) sampleAndCompare() (*Report, error) {
	m.mu.Lock()
	baseline := m.baseline
	rng := rand.New(rand.NewSource(m.rng.Int63()))
	m.mu.Unlock()
	// The baseline's pivot is "" when it predates pivot tracking:
	// probe.Sample then rediscovers one, the way the learn phase does.
	sample, _, err := probe.Sample(m.src, baseline.Pivot, m.cfg.SampleLimit, m.cfg.ProbeWorkers, rng)
	if err != nil {
		return nil, err
	}
	return Compare(baseline, sample)
}

// Run ticks at the configured interval until ctx is cancelled. Errors are
// retained in Status (and counted), never fatal — a flaky source must not
// kill the monitor. Consecutive failures stretch the wait exponentially
// (capped at 8× Interval) so an unhealthy source isn't re-probed at full
// cadence; the first success snaps back to the base interval.
func (m *Monitor) Run(ctx context.Context) {
	t := time.NewTimer(m.NextInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = m.Tick()
			t.Reset(m.NextInterval())
		}
	}
}

// NextInterval is the delay Run waits before the next tick given the
// current consecutive-failure streak: Interval·2^n, capped.
func (m *Monitor) NextInterval() time.Duration {
	fails := m.consecFails.Load()
	d, ceiling := m.cfg.Interval, maxBackoff*m.cfg.Interval
	for i := int64(0); i < fails; i++ {
		d *= 2
		if d >= ceiling {
			return ceiling
		}
	}
	return d
}

// Status is a point-in-time view of the monitor for the debug and metrics
// surfaces.
type Status struct {
	Ticks    int64   `json:"ticks"`
	Breaches int64   `json:"breaches"`
	Errors   int64   `json:"errors"`
	PSIWarn  float64 `json:"psi_warn"`
	// ConsecFailures counts re-probe failures since the last success; Run's
	// backoff is derived from it (NextIntervalSeconds is the current wait).
	ConsecFailures      int64     `json:"consecutive_failures"`
	NextIntervalSeconds float64   `json:"next_interval_seconds"`
	LastAt              time.Time `json:"last_at,omitempty"`
	LastErr             string    `json:"last_error,omitempty"`
	Last                *Report   `json:"last,omitempty"`
}

// Status snapshots the monitor's counters and last report.
func (m *Monitor) Status() Status {
	st := Status{
		Ticks:               m.ticks.Load(),
		Breaches:            m.breaches.Load(),
		Errors:              m.errs.Load(),
		PSIWarn:             m.cfg.PSIWarn,
		ConsecFailures:      m.consecFails.Load(),
		NextIntervalSeconds: m.NextInterval().Seconds(),
	}
	m.mu.Lock()
	st.LastAt = m.lastAt
	st.Last = m.last
	if m.lastErr != nil {
		st.LastErr = m.lastErr.Error()
	}
	m.mu.Unlock()
	return st
}
