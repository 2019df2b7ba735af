package lifecycle

import (
	"errors"
	"fmt"
	"os"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/service"
)

// ShadowReport summarizes a candidate model's replay of recent production
// queries before promotion: the recorded answers (from the audit log) versus
// what the candidate would have answered against the live source.
type ShadowReport struct {
	// Sampled is how many distinct recent queries were replayed.
	Sampled int `json:"sampled"`
	// Errors is how many replays failed (source faults, timeouts). A
	// minority of errors is tolerated — the comparison uses what completed.
	Errors int `json:"errors"`
	// ZeroRateRecorded/Candidate are the fractions of replayed queries that
	// returned no answers, as recorded vs under the candidate.
	ZeroRateRecorded  float64 `json:"zero_rate_recorded"`
	ZeroRateCandidate float64 `json:"zero_rate_candidate"`
	// MeanSimRecorded/Candidate are the mean per-answer similarity across
	// all returned rows.
	MeanSimRecorded  float64 `json:"mean_sim_recorded"`
	MeanSimCandidate float64 `json:"mean_sim_candidate"`
	// Accept is the verdict; Reason says why (both ways).
	Accept bool   `json:"accept"`
	Reason string `json:"reason"`
}

// replayTimeout bounds each shadow-replayed computation.
const replayTimeout = 10 * time.Second

// shadowValidate replays a sample of recent audited queries against the
// candidate model (in-process, against the serving source) and compares
// answer quality with what was recorded. Returns (nil, nil) when validation
// is disabled — treated as accept. Returns an error only for infrastructure
// failures (unreadable log, majority of replays erroring); quality verdicts
// come back in the report.
func (c *Controller) shadowValidate(m *service.Model) (*ShadowReport, error) {
	if c.cfg.ShadowSample < 0 || c.cfg.AuditPath == "" {
		return nil, nil
	}
	lg, err := audit.ReadLogFile(c.cfg.AuditPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// No traffic audited yet (fresh deployment): nothing to compare
			// against, accept on the learner's own validation.
			return &ShadowReport{Accept: true, Reason: "no audit log yet"}, nil
		}
		return nil, fmt.Errorf("reading audit log: %w", err)
	}
	events := recentEvents(lg.Events, c.cfg.ShadowSample)
	if len(events) == 0 {
		return &ShadowReport{Accept: true, Reason: "no replayable events in audit log"}, nil
	}

	var target audit.Target
	if c.newTarget != nil {
		target = c.newTarget(m) // test seam: deterministic replay outcomes
	} else {
		target = &audit.EngineTarget{
			Src:     c.src,
			Est:     m.Est,
			Relaxer: &core.Guided{Ord: m.Ord},
			Engine:  c.cfg.Engine,
			Timeout: replayTimeout,
		}
	}
	rep := &ShadowReport{Sampled: len(events)}
	var (
		replayed              int
		recZero, candZero     int
		recSimSum, candSimSum float64
		recRows, candRows     int
	)
	for _, ev := range events {
		rows, err := target.Answer(ev.Query, ev.K, ev.Tsim)
		if err != nil {
			rep.Errors++
			continue
		}
		replayed++
		if len(ev.Rows) == 0 {
			recZero++
		}
		if len(rows) == 0 {
			candZero++
		}
		for _, r := range ev.Rows {
			recSimSum += r.Sim
		}
		recRows += len(ev.Rows)
		for _, r := range rows {
			candSimSum += r.Sim
		}
		candRows += len(rows)
	}
	if replayed == 0 || rep.Errors > replayed {
		return nil, fmt.Errorf("shadow replay mostly failing: %d errors, %d completed of %d sampled",
			rep.Errors, replayed, rep.Sampled)
	}
	rep.ZeroRateRecorded = float64(recZero) / float64(replayed)
	rep.ZeroRateCandidate = float64(candZero) / float64(replayed)
	if recRows > 0 {
		rep.MeanSimRecorded = recSimSum / float64(recRows)
	}
	if candRows > 0 {
		rep.MeanSimCandidate = candSimSum / float64(candRows)
	}

	zeroRise := rep.ZeroRateCandidate - rep.ZeroRateRecorded
	simDrop := rep.MeanSimRecorded - rep.MeanSimCandidate
	const eps = 1e-12
	switch {
	case zeroRise > c.cfg.MaxZeroRise+eps:
		rep.Reason = fmt.Sprintf("zero-answer rate rose %.2f -> %.2f (max rise %.2f) over %d replayed queries",
			rep.ZeroRateRecorded, rep.ZeroRateCandidate, c.cfg.MaxZeroRise, replayed)
	case simDrop > c.cfg.MaxSimDrop+eps:
		rep.Reason = fmt.Sprintf("mean similarity dropped %.3f -> %.3f (max drop %.2f) over %d replayed queries",
			rep.MeanSimRecorded, rep.MeanSimCandidate, c.cfg.MaxSimDrop, replayed)
	default:
		rep.Accept = true
		rep.Reason = fmt.Sprintf("replayed %d queries: zero rate %.2f -> %.2f, mean sim %.3f -> %.3f",
			replayed, rep.ZeroRateRecorded, rep.ZeroRateCandidate, rep.MeanSimRecorded, rep.MeanSimCandidate)
	}
	return rep, nil
}

// recentEvents picks up to limit distinct answer events, newest first —
// dedup by normalized query key so a hot cached query doesn't dominate the
// sample. Partial answers and non-answer records are skipped.
func recentEvents(events []audit.Event, limit int) []audit.Event {
	if limit == 0 {
		limit = 64
	}
	seen := make(map[string]struct{}, limit)
	out := make([]audit.Event, 0, limit)
	for i := len(events) - 1; i >= 0 && len(out) < limit; i-- {
		ev := events[i]
		if ev.Record != audit.RecordAnswer || ev.Query == "" || ev.Partial {
			continue
		}
		key := ev.Key
		if key == "" {
			key = fmt.Sprintf("%s|k=%d|tsim=%g", ev.Query, ev.K, ev.Tsim)
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, ev)
	}
	return out
}
