// Package learn runs AIMQ's offline phase (paper §3 Figure 1): probe the
// autonomous source for a sample, mine approximate functional dependencies
// and keys with TANE, order the attributes by Algorithm 2, build
// supertuples, and estimate the categorical value similarities (VSim).
//
// It is the one implementation of that pipeline. The public aimq.DB, the
// answering service, the experiment harness and aimq-mine all call it, so a
// change of miner or of a default lands in one place.
package learn

import (
	"fmt"
	"math/rand"
	"time"

	"aimq/internal/afd"
	"aimq/internal/drift"
	"aimq/internal/model"
	"aimq/internal/obs"
	"aimq/internal/probe"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

// Config tunes the offline phase. Zero values select the defaults.
type Config struct {
	Seed        int64   // probing/sampling seed (default 1)
	Pivot       string  // probing pivot attribute ("" = auto-discover)
	SampleSize  int     // cap on the probed sample (0 = keep all)
	Terr        float64 // TANE g3 threshold (default 0.15)
	MaxLHS      int     // AFD antecedent bound (default min(arity-1, 3))
	Buckets     int     // numeric discretization buckets (default 10)
	MinSim      float64 // drop value similarities below this (default 0)
	MinimalOnly bool    // mine only minimal AFDs and AKeys
	// Workers drives every parallel stage: spanning probes in flight, TANE
	// level workers, supertuple-build goroutines and the VSim pair sweep.
	// 0 runs the first three serially and sweeps with GOMAXPROCS
	// goroutines. Every stage is bit-identical at any worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Terr == 0 {
		c.Terr = tane.DefaultTerr
	}
	if c.Buckets == 0 {
		c.Buckets = 10
	}
	return c
}

// Model is what one offline run learns.
type Model struct {
	// Mined holds every AFD and approximate key TANE found.
	Mined *tane.Result
	// Ord is Algorithm 2's relaxation order and importance weights.
	Ord *afd.Ordering
	// Est holds the value similarities and the supertuple index (Est.Index)
	// they were estimated from.
	Est *similarity.Estimator
	// Stats profiles the run: one span per stage (probe and sample when the
	// run probed, then mine, order, supertuple, similarity and snapshot).
	Stats *obs.LearnStats
	// Snap is the serializable form, with provenance and the sample's drift
	// baseline.
	Snap *model.Snapshot
}

// Probe collects the sample Build learns from (see probe.Sample). The
// sample cap draws from rand.New(Seed), so a config always draws the same
// sample.
func Probe(src webdb.Source, cfg Config) (*relation.Relation, probe.Stats, error) {
	cfg = cfg.withDefaults()
	sample, st, err := probe.Sample(src, cfg.Pivot, cfg.SampleSize, cfg.Workers, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, st, fmt.Errorf("probing failed: %w", err)
	}
	return sample, st, nil
}

// Build runs the whole offline phase against src: Probe, then FromSample.
// The model does not keep the probed sample.
func Build(src webdb.Source, cfg Config) (*Model, error) {
	r := newRun()
	sample, ps, err := Probe(src, cfg)
	if err != nil {
		return nil, err
	}
	r.span("probe", r.start, ps.ProbeTime)
	r.span("sample", r.start.Add(ps.ProbeTime), ps.CapTime)
	r.stats.SeedTuples = ps.SeedTuples
	r.stats.SpanningQueries = ps.SpanningQueries
	r.stats.ProbeFailures = ps.Failures
	r.stats.ProbedTuples = ps.ProbedTuples
	cfg.Pivot = ps.Pivot
	return r.learn(sample, cfg.withDefaults())
}

// FromSample runs the offline phase from mining on, over a sample already
// collected. cfg.Pivot is recorded as the sample's probing pivot; Seed and
// SampleSize only apply to probing and are unused here.
func FromSample(sample *relation.Relation, cfg Config) (*Model, error) {
	return newRun().learn(sample, cfg.withDefaults())
}

// run accumulates one offline run's stage profile.
type run struct {
	start time.Time
	stats *obs.LearnStats
}

func newRun() *run { return &run{start: time.Now(), stats: &obs.LearnStats{}} }

func (r *run) span(name string, begin time.Time, dur time.Duration) {
	r.stats.Stages = append(r.stats.Stages, obs.Span{
		Name:    name,
		StartMs: float64(begin.Sub(r.start).Nanoseconds()) / 1e6,
		DurMs:   float64(dur.Nanoseconds()) / 1e6,
	})
}

func (r *run) stage(name string, begin time.Time) { r.span(name, begin, time.Since(begin)) }

func (r *run) learn(sample *relation.Relation, cfg Config) (*Model, error) {
	st := r.stats
	st.Pivot = cfg.Pivot
	st.SampleSize = sample.Size()

	begin := time.Now()
	mined := tane.Miner{Terr: cfg.Terr, MaxLHS: cfg.MaxLHS, MinimalOnly: cfg.MinimalOnly, Workers: cfg.Workers}.Mine(sample)
	r.stage("mine", begin)
	st.AFDs = len(mined.AFDs)
	st.AKeys = len(mined.AKeys)
	st.LatticeLevels = mined.LevelsVisited
	st.SetsExamined = mined.SetsExamined
	st.ProductsComputed = mined.ProductsComputed
	st.PartitionCacheHits = mined.PartitionCacheHits
	st.PeakPartitionBytes = mined.PeakPartitionBytes
	st.MineWorkers = max(cfg.Workers, 1)

	begin = time.Now()
	ord, err := afd.Order(mined)
	if err != nil {
		return nil, fmt.Errorf("%w (raise Terr or enlarge the sample)", err)
	}
	r.stage("order", begin)

	begin = time.Now()
	idx := supertuple.Builder{Buckets: cfg.Buckets, Workers: cfg.Workers}.Build(sample)
	r.stage("supertuple", begin)

	begin = time.Now()
	est := similarity.New(idx, ord, similarity.Config{MinSim: cfg.MinSim, SweepWorkers: cfg.Workers})
	r.stage("similarity", begin)

	// The sample's distribution sketches travel inside the snapshot, so any
	// process serving this model can later ask whether the source still
	// looks like the data the model was learned on.
	begin = time.Now()
	snap := model.Capture(ord, est)
	snap.Provenance = model.Provenance{
		LearnedAtUnix: time.Now().Unix(),
		SampleSize:    sample.Size(),
		Pivot:         cfg.Pivot,
		Drift:         drift.BuildProfile(sample, ord.BestKey.Attrs.Members()),
	}
	snap.Drift.Pivot = cfg.Pivot
	r.stage("snapshot", begin)
	st.TotalMs = float64(time.Since(r.start).Nanoseconds()) / 1e6

	return &Model{Mined: mined, Ord: ord, Est: est, Stats: st, Snap: snap}, nil
}
