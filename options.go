package aimq

import (
	"aimq/internal/learn"
	"aimq/internal/relation"
)

// config holds all tunables of a session; every field has a paper-aligned
// default and a corresponding Option.
type config struct {
	learn  learn.Config // zero fields take learn's defaults
	sample *relation.Relation

	tsim              float64
	k                 int
	baseLimit         int
	perQueryLimit     int
	targetRelevant    int
	maxQueriesPerBase int
	maxSourceFailures int
	feedbackRate      float64
	trace             bool
}

func defaultConfig() config {
	return config{tsim: 0.5, k: 10}
}

// Option customizes a DB session.
type Option func(*config)

// WithSeed sets the seed for probing and sampling randomness (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.learn.Seed = seed } }

// WithPivot sets the attribute used to build spanning probe queries. By
// default the lowest-cardinality attribute found by a seed probe is used.
func WithPivot(attr string) Option { return func(c *config) { c.learn.Pivot = attr } }

// WithSample supplies a pre-collected sample, skipping the probing phase.
func WithSample(rel *relation.Relation) Option { return func(c *config) { c.sample = rel } }

// WithSampleSize caps the probed sample used for mining (0 = keep all).
func WithSampleSize(n int) Option { return func(c *config) { c.learn.SampleSize = n } }

// WithProbeParallelism sets Learn's worker count: spanning probes in
// flight, TANE level workers, supertuple-build goroutines and the VSim pair
// sweep. The default 0 probes, mines and builds serially and sweeps with
// GOMAXPROCS goroutines. The learned model is identical at any count.
func WithProbeParallelism(n int) Option { return func(c *config) { c.learn.Workers = n } }

// WithErrorThreshold sets TANE's g3 error threshold Terr (default 0.15).
func WithErrorThreshold(terr float64) Option { return func(c *config) { c.learn.Terr = terr } }

// WithMaxLHS bounds the antecedent size of mined dependencies (default:
// min(arity−1, 3)).
func WithMaxLHS(n int) Option { return func(c *config) { c.learn.MaxLHS = n } }

// WithBuckets sets the numeric discretization used in supertuples
// (default 10).
func WithBuckets(n int) Option { return func(c *config) { c.learn.Buckets = n } }

// WithMinSim drops precomputed value similarities below the given value,
// keeping the similarity matrices sparse (default 0).
func WithMinSim(s float64) Option { return func(c *config) { c.learn.MinSim = s } }

// WithThreshold sets the answer similarity threshold Tsim (default 0.5).
func WithThreshold(tsim float64) Option { return func(c *config) { c.tsim = tsim } }

// WithTopK sets how many answers Ask returns (default 10).
func WithTopK(k int) Option { return func(c *config) { c.k = k } }

// WithBaseLimit caps how many base-set tuples are expanded via relaxation
// (default 10).
func WithBaseLimit(n int) Option { return func(c *config) { c.baseLimit = n } }

// WithPerQueryLimit caps tuples fetched per relaxation query (default 200).
func WithPerQueryLimit(n int) Option { return func(c *config) { c.perQueryLimit = n } }

// WithTargetRelevant stops relaxation after this many tuples above the
// threshold have been found (default 0: exhaust the schedule).
func WithTargetRelevant(n int) Option { return func(c *config) { c.targetRelevant = n } }

// WithMaxQueriesPerBase caps relaxation queries per base tuple — useful on
// high-arity relations (default 0: unlimited).
func WithMaxQueriesPerBase(n int) Option { return func(c *config) { c.maxQueriesPerBase = n } }

// WithMaxSourceFailures tolerates this many failed source queries per Ask
// before giving up (default 0).
func WithMaxSourceFailures(n int) Option { return func(c *config) { c.maxSourceFailures = n } }

// WithFeedbackRate sets the relevance-feedback learning rate η ∈ (0, 1]
// used by Feedback and FeedbackBatch (default 0.1).
func WithFeedbackRate(rate float64) Option { return func(c *config) { c.feedbackRate = rate } }

// WithTrace records every relaxation step into Answers.Trace — which
// queries ran, how many tuples each extracted and how many qualified.
// Useful for understanding and debugging the relaxation behaviour; off by
// default because deep schedules produce large traces.
func WithTrace(on bool) Option { return func(c *config) { c.trace = on } }
