package aimq

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"aimq/internal/afd"
	"aimq/internal/core"
	"aimq/internal/learn"
	"aimq/internal/model"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/webdb"
	"aimq/internal/workload"
)

// DB is an AIMQ session over one autonomous database. Create one with Open
// (in-process data), OpenCSV (a file) or Connect (a remote web database),
// call Learn once to mine the source, then Ask imprecise queries.
//
// A DB is safe for concurrent Ask calls after Learn has returned.
type DB struct {
	src    webdb.Source
	cfg    config
	probed *relation.Relation
	// prov is the provenance of the learn run or the loaded snapshot;
	// SaveModel writes it beside the current ordering and estimator.
	prov model.Provenance

	ord *afd.Ordering
	est *similarity.Estimator

	// log records every asked query for workload-driven adaptation.
	log *workload.Log
}

// ErrNotLearned is returned by query methods before Learn has run.
var ErrNotLearned = errors.New("aimq: call Learn before querying")

// Open creates a session over an in-process relation. The relation is
// treated exactly like a remote source: AIMQ only issues boolean queries
// against it.
func Open(rel *relation.Relation, opts ...Option) *DB {
	return newDB(webdb.NewLocal(rel), opts...)
}

// OpenCSV creates a session over a relation stored in a CSV file written by
// SaveCSV / cmd/aimq-datagen.
func OpenCSV(path string, opts ...Option) (*DB, error) {
	rel, err := relation.LoadCSV(path)
	if err != nil {
		return nil, err
	}
	return Open(rel, opts...), nil
}

// Connect creates a session over a remote autonomous web database serving
// the aimqd HTTP interface.
func Connect(baseURL string, client *http.Client, opts ...Option) (*DB, error) {
	c, err := webdb.NewClient(baseURL, client)
	if err != nil {
		return nil, err
	}
	return newDB(c, opts...), nil
}

// OpenSource creates a session over any webdb.Source implementation —
// custom transports, middlewares like webdb.ProbeCounter, or the
// fault-injecting webdb.Chaos used in resilience tests.
func OpenSource(src webdb.Source, opts ...Option) *DB {
	return newDB(src, opts...)
}

func newDB(src webdb.Source, opts ...Option) *DB {
	db := &DB{src: src, cfg: defaultConfig(), log: workload.NewLog(src.Schema())}
	for _, o := range opts {
		o(&db.cfg)
	}
	return db
}

// Schema returns the source's schema.
func (db *DB) Schema() *relation.Schema { return db.src.Schema() }

// Source returns the underlying source (useful for probe accounting).
func (db *DB) Source() webdb.Source { return db.src }

// Learn runs AIMQ's offline phase (internal/learn): it probes the source
// for a sample (or uses the one supplied via WithSample), mines approximate
// functional dependencies and keys with TANE, derives the attribute
// relaxation order and importance weights (Algorithm 2), and estimates
// categorical value similarities from supertuples. The probe runs to its
// end: Learn takes no context.
func (db *DB) Learn() error {
	cfg, sample := db.cfg.learn, db.cfg.sample
	if sample == nil {
		probed, st, err := learn.Probe(context.Background(), db.src, cfg)
		if err != nil {
			return fmt.Errorf("aimq: %w", err)
		}
		sample, cfg.Pivot = probed, st.Pivot
	}
	m, err := learn.FromSample(sample, cfg)
	if err != nil {
		return fmt.Errorf("aimq: %w", err)
	}
	db.probed, db.ord, db.est, db.prov = sample, m.Ord, m.Est, m.Snap.Provenance
	return nil
}

// Learned reports whether Learn has completed.
func (db *DB) Learned() bool { return db.est != nil }

// Sample returns the probed sample the model was learned from (nil before
// Learn).
func (db *DB) Sample() *relation.Relation { return db.probed }

// engine assembles the online query engine with the session's config.
func (db *DB) engine() *core.Engine {
	return core.New(db.src, db.est, &core.Guided{Ord: db.ord}, core.Config{
		Tsim:              db.cfg.tsim,
		K:                 db.cfg.k,
		BaseLimit:         db.cfg.baseLimit,
		PerQueryLimit:     db.cfg.perQueryLimit,
		TargetRelevant:    db.cfg.targetRelevant,
		MaxQueriesPerBase: db.cfg.maxQueriesPerBase,
		MaxSourceFailures: db.cfg.maxSourceFailures,
	})
}

// WorkloadQueries returns how many queries this session has recorded for
// workload-driven adaptation.
func (db *DB) WorkloadQueries() int { return db.log.Queries() }

// AdaptToWorkload blends the mined (data-driven) attribute importance with
// the query-driven importance observed in this session's workload — the
// complementary approach the paper discusses in §7. alpha 0 keeps the mined
// model; alpha 1 trusts only the workload. Requires at least one Ask since
// the session started. Not safe to call concurrently with Ask.
func (db *DB) AdaptToWorkload(alpha float64) error {
	if !db.Learned() {
		return ErrNotLearned
	}
	blended, err := db.log.Blend(db.ord, alpha)
	if err != nil {
		return fmt.Errorf("aimq: %w", err)
	}
	db.ord = blended
	db.est.Ordering = blended
	return nil
}
