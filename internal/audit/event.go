// Package audit is the durable query log: one JSONL wide-event per
// computed answer, written by an async ring-buffered writer that never
// blocks the serving path, plus the reader and replayer that turn the log
// back into a regression corpus.
//
// Every log file starts with a header record pinning the context the
// events were recorded under — model fingerprint, engine defaults, service
// build, sample rate — so an offline auditor (cmd/aimq-audit) can rebuild
// an equivalent engine and replay the recorded queries, diffing answer
// sets and Sim scores against the recorded baseline. On an unchanged model
// and source the replay reproduces the recorded answers bit-identically;
// after a model or engine change the diff is the quality delta of that
// change over last week's real traffic.
package audit

import (
	"sort"
)

// FormatVersion identifies the log record format.
const FormatVersion = 1

// Record type tags (the "record" field of every JSONL line).
const (
	RecordHeader = "header"
	RecordAnswer = "answer"
)

// Header is the first record of every audit log file: the serving context
// all subsequent events were recorded under.
type Header struct {
	Record        string `json:"record"` // "header"
	Version       int    `json:"version"`
	CreatedAtUnix int64  `json:"created_at_unix"`
	// Service is the serving binary's build version.
	Service string `json:"service,omitempty"`
	// ModelFingerprint identifies the learned model (model.Snapshot
	// Fingerprint); replaying against a model with a different fingerprint
	// measures a model change, not a regression.
	ModelFingerprint   string `json:"model_fingerprint,omitempty"`
	ModelLearnedAtUnix int64  `json:"model_learned_at_unix,omitempty"`
	// SampleRate is the 1-in-N event sampling in effect (0/1 = every
	// computed answer was logged).
	SampleRate int `json:"sample_rate,omitempty"`
	// Engine pins the engine defaults the answers were computed with.
	Engine EngineConfig `json:"engine"`
}

// EngineConfig is the replay-relevant subset of core.Config.
type EngineConfig struct {
	K                 int     `json:"k,omitempty"`
	Tsim              float64 `json:"tsim,omitempty"`
	BaseLimit         int     `json:"base_limit,omitempty"`
	PerQueryLimit     int     `json:"per_query_limit,omitempty"`
	TargetRelevant    int     `json:"target_relevant,omitempty"`
	MaxQueriesPerBase int     `json:"max_queries_per_base,omitempty"`
	DisablePruning    bool    `json:"disable_pruning,omitempty"`
	KeyPruneMaxError  float64 `json:"key_prune_max_error,omitempty"`
	FailDegrade       bool    `json:"fail_degrade,omitempty"`
}

// Event is one wide event: everything worth knowing about one computed
// answer, denormalized into a single record.
type Event struct {
	Record     string `json:"record"` // "answer"
	TimeUnixMs int64  `json:"time_unix_ms"`
	// TraceID links the event to /debug/traces and distributed traces.
	TraceID string `json:"trace_id,omitempty"`
	// Query is the Parse-round-trippable canonical query text (query.Text);
	// Key is the answer-cache key: that text with k and tsim folded in.
	Query string  `json:"query"`
	Key   string  `json:"key,omitempty"`
	K     int     `json:"k"`
	Tsim  float64 `json:"tsim"`
	// ModelFingerprint repeats the header's (events survive file rotation
	// and concatenation; each one stays self-describing).
	ModelFingerprint string `json:"model_fingerprint,omitempty"`

	// Answer-quality facts.
	Answers       int     `json:"answers"`
	TopSim        float64 `json:"top_sim,omitempty"`
	MinSim        float64 `json:"min_sim,omitempty"`
	MeanSim       float64 `json:"mean_sim,omitempty"`
	RelaxSteps    int     `json:"relax_steps,omitempty"`
	RelaxDepthMax int     `json:"relax_depth_max,omitempty"`

	// Engine work counters.
	QueriesIssued   int `json:"queries_issued"`
	TuplesExtracted int `json:"tuples_extracted"`
	TuplesQualified int `json:"tuples_qualified"`
	StepsPruned     int `json:"steps_pruned,omitempty"`

	// Serving flags at computation time.
	Degraded bool `json:"degraded,omitempty"`
	Explain  bool `json:"explain,omitempty"`
	Partial  bool `json:"partial,omitempty"` // deadline cut the relaxation

	LatencyMs float64 `json:"latency_ms"`

	// Rows is the full ranked answer set — values rendered exactly as the
	// HTTP response renders them, so a replay can diff bit-identically.
	Rows []Row `json:"rows,omitempty"`
}

// Row is one recorded answer tuple.
type Row struct {
	Values []string `json:"values"`
	Sim    float64  `json:"sim"`
}

// SetSimStats fills the Answers/TopSim/MinSim/MeanSim block from Rows
// (which are ranked Sim-descending by the engine).
func (e *Event) SetSimStats() {
	e.Answers = len(e.Rows)
	if len(e.Rows) == 0 {
		return
	}
	sum := 0.0
	e.TopSim, e.MinSim = e.Rows[0].Sim, e.Rows[0].Sim
	for _, r := range e.Rows {
		sum += r.Sim
		if r.Sim > e.TopSim {
			e.TopSim = r.Sim
		}
		if r.Sim < e.MinSim {
			e.MinSim = r.Sim
		}
	}
	e.MeanSim = sum / float64(len(e.Rows))
}

// Summary aggregates a slice of recorded events into the quality report
// `aimq-audit report` prints — the longitudinal view of answer quality.
type Summary struct {
	Events          int     `json:"events"`
	ZeroAnswer      int     `json:"zero_answer"`
	ZeroAnswerRate  float64 `json:"zero_answer_rate"`
	AnswersPerQuery float64 `json:"answers_per_query"`
	MeanTopSim      float64 `json:"mean_top_sim"`
	MeanSim         float64 `json:"mean_sim"`
	MeanLatencyMs   float64 `json:"mean_latency_ms"`
	MaxLatencyMs    float64 `json:"max_latency_ms"`
	QueriesIssued   int     `json:"queries_issued"`
	TuplesExtracted int     `json:"tuples_extracted"`
	// DepthDist histograms relax_depth_max: how deep relaxation had to go
	// per recorded answer set.
	DepthDist map[int]int `json:"depth_dist,omitempty"`
	Degraded  int         `json:"degraded,omitempty"`
	Partial   int         `json:"partial,omitempty"`
}

// Summarize folds events into a Summary.
func Summarize(events []Event) Summary {
	s := Summary{Events: len(events), DepthDist: map[int]int{}}
	if len(events) == 0 {
		return s
	}
	var answers int
	var topSum, simSum, latSum float64
	var withAnswers int
	for _, e := range events {
		if e.Answers == 0 {
			s.ZeroAnswer++
		} else {
			withAnswers++
			topSum += e.TopSim
			simSum += e.MeanSim
		}
		answers += e.Answers
		latSum += e.LatencyMs
		if e.LatencyMs > s.MaxLatencyMs {
			s.MaxLatencyMs = e.LatencyMs
		}
		s.QueriesIssued += e.QueriesIssued
		s.TuplesExtracted += e.TuplesExtracted
		s.DepthDist[e.RelaxDepthMax]++
		if e.Degraded {
			s.Degraded++
		}
		if e.Partial {
			s.Partial++
		}
	}
	s.ZeroAnswerRate = float64(s.ZeroAnswer) / float64(len(events))
	s.AnswersPerQuery = float64(answers) / float64(len(events))
	s.MeanLatencyMs = latSum / float64(len(events))
	if withAnswers > 0 {
		s.MeanTopSim = topSum / float64(withAnswers)
		s.MeanSim = simSum / float64(withAnswers)
	}
	return s
}

// Depths returns the summary's depth histogram keys sorted, for
// deterministic rendering.
func (s Summary) Depths() []int {
	out := make([]int, 0, len(s.DepthDist))
	for d := range s.DepthDist {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}
