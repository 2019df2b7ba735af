package service

import (
	"fmt"
	"net/http"
	"time"

	"aimq/internal/audit"
	"aimq/internal/drift"
	"aimq/internal/obs"
	"aimq/internal/query"
)

// SetModelInfo attaches the served model's identity card, surfaced by
// /healthz, /debug/learn, the aimq_model_* metric families and every audit
// event. Call at startup; later identity changes ride on Promote. The card
// lives in the engine pack, so a copy-on-write swap keeps it consistent
// with the estimator/relaxer it describes.
func (s *Service) SetModelInfo(info ModelInfo) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	next := *s.pack.Load()
	next.info, next.infoSet = info, true
	s.pack.Store(&next)
}

// ModelInfo returns the serving model's identity card; ok is false when none
// was set (tests constructing a bare service).
func (s *Service) ModelInfo() (ModelInfo, bool) {
	p := s.pack.Load()
	return p.info, p.infoSet
}

// AttachDriftMonitor wires a drift monitor into the service's telemetry:
// its status feeds /debug/drift and the aimq_model_drift_* families, and
// every threshold breach is logged at WARN and recorded into the trace ring
// as a synthetic trace, so drift events appear in the same timeline as the
// queries they endanger. The caller owns the monitor's Run loop.
func (s *Service) AttachDriftMonitor(mon *drift.Monitor) {
	s.infoMu.Lock()
	s.driftMon = mon
	s.infoMu.Unlock()
	prev := mon.OnBreach
	mon.OnBreach = func(r *drift.Report) {
		if prev != nil {
			prev(r)
		}
		shifted := r.Shifted(mon.PSIWarn())
		s.log.Warn("model drift threshold breached",
			"max_psi", r.MaxPSI, "attr", r.MaxPSIAttr,
			"shifted", shifted, "key_error_delta", r.KeyErrorDelta,
			"sample", r.SampleSize)
		// A synthetic trace in the ring: drift breaches show up in
		// /debug/traces between the answer traces they put at risk.
		s.ring.Add(obs.Trace{
			ID:    obs.NewRequestID(),
			Query: fmt.Sprintf("[drift] max PSI %.3f on %v", r.MaxPSI, shifted),
			Start: time.Now(),
			Err:   fmt.Sprintf("distribution shift: max_psi=%.3f attrs=%v key_error_delta=%+.3f", r.MaxPSI, shifted, r.KeyErrorDelta),
		})
	}
}

// driftMonitor returns the attached monitor, nil when none.
func (s *Service) driftMonitor() *drift.Monitor {
	s.infoMu.Lock()
	defer s.infoMu.Unlock()
	return s.driftMon
}

// handleDrift serves the drift monitor's status: tick/breach counters, the
// threshold, and the latest comparison report with its per-attribute PSI,
// chi-square and null-rate deltas.
func (s *Service) handleDrift(w http.ResponseWriter, _ *http.Request) {
	mon := s.driftMonitor()
	if mon == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: "no drift monitor attached (model has no baseline profile, or monitoring is disabled)"})
		return
	}
	st := mon.Status()
	out := map[string]any{
		"psi_warn":              st.PSIWarn,
		"ticks":                 st.Ticks,
		"breaches":              st.Breaches,
		"errors":                st.Errors,
		"consecutive_failures":  st.ConsecFailures,
		"next_interval_seconds": st.NextIntervalSeconds,
	}
	if !st.LastAt.IsZero() {
		out["last_tick"] = st.LastAt
	}
	if st.LastErr != "" {
		out["last_error"] = st.LastErr
	}
	if st.Last != nil {
		out["report"] = st.Last
		out["shifted"] = st.Last.Shifted(st.PSIWarn)
	}
	if b := mon.Baseline(); b != nil {
		out["baseline"] = map[string]any{
			"sample_size": b.SampleSize,
			"key_attrs":   b.KeyAttrs,
			"key_error":   b.KeyError,
			"pivot":       b.Pivot,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// auditRecord emits one wide event for a computed answer. Called from
// compute() only — cache hits never reach it, so the zero-alloc warm path
// stays untouched with audit enabled. p carries the rendered rows (exactly
// the strings the HTTP response serves); tr is non-nil whenever auditing is
// on, because an audit writer forces the recorder.
func (s *Service) auditRecord(pack *enginePack, q *query.Query, p *answerPayload, tr *obs.Trace, k int, tsim float64, explain, partial bool) {
	if s.audit == nil || p == nil {
		return
	}
	ev := &audit.Event{
		Record:     audit.RecordAnswer,
		TimeUnixMs: time.Now().UnixMilli(),
		Query:      q.Text(),
		Key:        cacheKey(q, k, tsim),
		K:          k,
		Tsim:       tsim,
		Degraded:   s.degraded(),
		Explain:    explain,
		Partial:    partial,
	}
	if pack.infoSet {
		// The pack that computed the answer, not the currently serving one —
		// a swap mid-computation must not mislabel the event.
		ev.ModelFingerprint = pack.info.Fingerprint
	}
	if tr != nil {
		ev.TraceID = tr.TraceID
		if ev.TraceID == "" {
			ev.TraceID = tr.ID
		}
		ev.LatencyMs = tr.ElapsedMs
		ev.RelaxSteps = tr.NumSteps()
		for i := range tr.Answers {
			ev.RelaxDepthMax = max(ev.RelaxDepthMax, relaxDepth(tr, &tr.Answers[i]))
		}
	}
	ev.QueriesIssued = p.Work.QueriesIssued
	ev.TuplesExtracted = p.Work.TuplesExtracted
	ev.TuplesQualified = p.Work.TuplesQualified
	ev.StepsPruned = p.Work.StepsPruned
	ev.Rows = make([]audit.Row, len(p.Answers))
	for i, a := range p.Answers {
		ev.Rows[i] = audit.Row{Values: a.Values, Sim: a.Sim}
	}
	ev.SetSimStats()
	s.audit.Record(ev)
}

// AuditStats exposes the audit writer's counters (zero Stats when auditing
// is disabled) for tests and the bench harness.
func (s *Service) AuditStats() audit.Stats {
	if s.audit == nil {
		return audit.Stats{}
	}
	return s.audit.Stats()
}
