// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) over the synthetic CarDB and CensusDB datasets. Each
// experiment is a function from a Lab (shared datasets and mined pipelines)
// to a result struct that renders the same rows/series the paper reports.
//
// The experiment index lives in DESIGN.md; paper-vs-measured outcomes are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"aimq/internal/datagen"
	"aimq/internal/learn"
	"aimq/internal/relation"
)

// Params controls experiment scale. Full() matches the paper's setup;
// Quick() shrinks everything so the whole suite runs in seconds (used by
// tests and the default CLI mode).
type Params struct {
	Seed int64

	CarDBSize   int   // full: 100_000
	CarSamples  []int // full: 15k, 25k, 50k (plus the full DB)
	CensusSize  int   // full: 45_000
	CensusTrain int   // full: 15_000

	Terr       float64 // TANE error threshold (CarDB)
	CensusTerr float64 // TANE error threshold (CensusDB): tighter, so that
	// near-constant attributes (Capital-gain ~94% zero, Native-Country ~90%
	// United-States) do not flood the dependence weights; with it the mined
	// best key is a combination like {Age, Demographic-weight, Hours-per-week} — the key the
	// paper reports for its census run.
	MaxLHS    int // TANE antecedent bound (CarDB)
	CensusLHS int // TANE antecedent bound (CensusDB; arity 13)

	RockSample       int     // ROCK clustering sample (paper: 2000)
	Theta            float64 // ROCK neighbor threshold
	RockCensusSample int     // ROCK clustering sample for CensusDB

	EffQueries    int       // Fig 6/7 query-tuple count (paper: 10)
	EffNeeded     int       // relevant tuples wanted per query (paper: 20)
	EffThresholds []float64 // Tsim sweep (paper: 0.5–0.9)

	StudyQueries int // Fig 8 query count (paper: 14)
	StudyUsers   int // Fig 8 panel size (paper: 8)
	StudySample  int // Fig 8 learning sample (paper: 25k)

	CensusQueries int     // Fig 9 query count (paper: 1000)
	CensusTsim    float64 // Fig 9 threshold (paper: 0.4)
	CensusKs      []int   // Fig 9 top-k values (paper: 10,5,3,1)

	MaxQueriesPerBase int // relaxation cap for high-arity CensusDB
}

// Full returns the paper-scale parameters.
func Full() Params {
	return Params{
		Seed:              2006,
		CarDBSize:         100_000,
		CarSamples:        []int{15_000, 25_000, 50_000},
		CensusSize:        45_000,
		CensusTrain:       15_000,
		Terr:              0.15,
		CensusTerr:        0.08,
		MaxLHS:            3,
		CensusLHS:         2,
		RockSample:        2000,
		Theta:             0.5,
		RockCensusSample:  1000,
		EffQueries:        10,
		EffNeeded:         20,
		EffThresholds:     []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		StudyQueries:      14,
		StudyUsers:        8,
		StudySample:       25_000,
		CensusQueries:     1000,
		CensusTsim:        0.4,
		CensusKs:          []int{10, 5, 3, 1},
		MaxQueriesPerBase: 0, // unlimited: TargetRelevant exits early
	}
}

// Quick returns a shrunken configuration for tests and smoke runs.
func Quick() Params {
	p := Full()
	p.CarDBSize = 8000
	p.CarSamples = []int{1500, 2500, 5000}
	p.CensusSize = 5000
	p.CensusTrain = 2500
	p.RockSample = 400
	p.RockCensusSample = 300
	p.EffQueries = 4
	p.EffNeeded = 10
	p.StudyQueries = 5
	p.StudyUsers = 8
	p.StudySample = 2500
	p.CensusQueries = 30
	return p
}

// Pipeline is the learned offline stack over one sample, kept with the
// sample it was mined from. Its stage profile (Stats) carries the offline
// timings Table 2 reports.
type Pipeline struct {
	Rel *relation.Relation
	*learn.Model
}

// BuildPipeline learns the offline stack over a relation sample with the
// default config apart from the TANE bounds.
func BuildPipeline(rel *relation.Relation, terr float64, maxLHS int) (*Pipeline, error) {
	m, err := learn.FromSample(rel, learn.Config{Terr: terr, MaxLHS: maxLHS})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Pipeline{Rel: rel, Model: m}, nil
}

// Lab lazily builds and caches the shared datasets and pipelines.
type Lab struct {
	P Params

	mu        sync.Mutex
	car       *datagen.CarDB
	census    *datagen.CensusDB
	carSample map[int]*relation.Relation
	pipelines map[string]*Pipeline
}

// NewLab creates a lab for the given parameters.
func NewLab(p Params) *Lab {
	return &Lab{
		P:         p,
		carSample: make(map[int]*relation.Relation),
		pipelines: make(map[string]*Pipeline),
	}
}

// Car returns the full CarDB (generated once).
func (l *Lab) Car() *datagen.CarDB {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.car == nil {
		l.car = datagen.GenerateCarDB(l.P.CarDBSize, l.P.Seed)
	}
	return l.car
}

// Census returns the full CensusDB (generated once).
func (l *Lab) Census() *datagen.CensusDB {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.census == nil {
		l.census = datagen.GenerateCensusDB(l.P.CensusSize, l.P.Seed+1)
	}
	return l.census
}

// CarSample returns a seeded simple random sample of the CarDB (cached per
// size; n >= CarDBSize returns the full relation).
func (l *Lab) CarSample(n int) *relation.Relation {
	full := l.Car().Rel
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.carSample[n]; ok {
		return s
	}
	rng := rand.New(rand.NewSource(l.P.Seed + int64(n)))
	s := full.Sample(n, rng)
	l.carSample[n] = s
	return s
}

// CarPipeline returns the mined stack over a CarDB sample of size n
// (cached).
func (l *Lab) CarPipeline(n int) (*Pipeline, error) {
	sample := l.CarSample(n)
	key := fmt.Sprintf("car-%d", n)
	l.mu.Lock()
	if p, ok := l.pipelines[key]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()
	p, err := BuildPipeline(sample, l.P.Terr, l.P.MaxLHS)
	if err != nil {
		return nil, fmt.Errorf("car pipeline (n=%d): %w", n, err)
	}
	l.mu.Lock()
	l.pipelines[key] = p
	l.mu.Unlock()
	return p, nil
}

// CensusPipeline returns the mined stack over the census training sample
// (cached). The training sample is the first CensusTrain tuples of a seeded
// shuffle; the remainder serves as held-out queries.
func (l *Lab) CensusPipeline() (*Pipeline, *relation.Relation, error) {
	db := l.Census()
	key := "census-train"
	l.mu.Lock()
	if p, ok := l.pipelines[key]; ok {
		train := l.carSample[-1] // stashed training sample
		l.mu.Unlock()
		return p, train, nil
	}
	l.mu.Unlock()

	rng := rand.New(rand.NewSource(l.P.Seed + 7))
	train := db.Rel.Sample(l.P.CensusTrain, rng)
	p, err := BuildPipeline(train, l.P.CensusTerr, l.P.CensusLHS)
	if err != nil {
		return nil, nil, fmt.Errorf("census pipeline: %w", err)
	}
	l.mu.Lock()
	l.pipelines[key] = p
	l.carSample[-1] = train
	l.mu.Unlock()
	return p, train, nil
}
