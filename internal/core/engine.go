package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/webdb"
)

// Config tunes the AIMQ engine. Zero values select the paper-aligned
// defaults noted per field.
type Config struct {
	// Tsim is the similarity threshold: retrieved tuples below it are
	// discarded (paper: Tsim ∈ (0,1), tuned by the system designers).
	// Default 0.5.
	Tsim float64
	// K is the number of answers returned (top-k). Default 10.
	K int
	// BaseLimit caps the number of base-set tuples expanded via
	// relaxation. Default 10.
	BaseLimit int
	// PerQueryLimit caps tuples fetched per relaxation query (Web sources
	// page their results). Default 200.
	PerQueryLimit int
	// TargetRelevant stops relaxation once this many tuples above Tsim
	// have been found. 0 means keep going until the schedule is exhausted.
	TargetRelevant int
	// MaxQueriesPerBase caps relaxation queries issued per base tuple.
	// High-arity relations (CensusDB: 13 attributes) have combinatorial
	// schedules; the greedy order puts the most productive relaxations at
	// the front of every depth level, so a cap sacrifices little recall.
	// 0 means unlimited.
	MaxQueriesPerBase int
	// MaxSourceFailures tolerated before Answer aborts. Default 0. Only
	// consulted under FailAbort; FailDegrade never hard-aborts.
	MaxSourceFailures int
	// OnFailure selects what a source failure does to the run: FailAbort
	// (default) preserves the historical contract — the MaxSourceFailures+1-th
	// failure aborts with an error — while FailDegrade treats failures like
	// cancellation: each one consumes time budget (retry/backoff happens in
	// the source wrapper) and the run keeps going, returning the partial
	// ranked Result built from whatever succeeded. An open circuit breaker
	// (webdb.ErrBreakerOpen) under FailDegrade stops the relaxation schedule
	// immediately — every further query would be shed anyway.
	OnFailure FailurePolicy
	// DisablePruning turns off the Sim-bound relaxation prune. By default
	// the engine skips a relaxation step when an upper bound on the gating
	// similarity of any *new* tuple the step could retrieve is already at
	// or below Tsim: a tuple returned by the query that dropped attribute
	// set D matches the base tuple exactly on every kept attribute, and on
	// each dropped attribute can contribute at most the base value's
	// largest mined cross-value similarity (1 for numeric attributes, whose
	// values are unconstrained). Skipped steps cannot change the above-Tsim
	// answer set (TestPruningEquivalence) but are not issued and do not
	// count against MaxQueriesPerBase, so under a per-base cap the pruned
	// engine reaches deeper into the schedule than the unpruned one.
	DisablePruning bool
	// KeyPruneMaxError tunes the second prune, the key-bound prune: a
	// relaxation step that *keeps* every attribute of the mined best key
	// bound is skipped, because a query carrying a key binding identifies
	// the base tuple — it is the precise query in disguise, and re-issuing
	// it can only re-extract tuples already retrieved. With an exact key
	// (g3 error 0) the skip provably cannot change the answer set
	// (TestKeyPruneEquivalence). The default (0) trusts only exact keys;
	// raising the threshold extends the same trust to approximate keys —
	// the exact trust GuidedRelax already places in mined AFDs for its
	// schedule — at the cost of possibly skipping tuples that collide with
	// the base on the key (at most an error-fraction of the source, and
	// still retrieved by any later step that drops part of the key).
	// DisablePruning turns this prune off too.
	KeyPruneMaxError float64
}

// FailurePolicy selects how AnswerContext responds to source failures.
type FailurePolicy int

const (
	// FailAbort aborts the run once failures exceed MaxSourceFailures
	// (the historical behavior, and the zero value).
	FailAbort FailurePolicy = iota
	// FailDegrade keeps answering through failures, returning a partial
	// ranked Result the way cancellation does. Pair it with a resilient
	// source (webdb.NewResilient) so each failure has already been retried.
	FailDegrade
)

func (c Config) withDefaults() Config {
	if c.Tsim == 0 {
		c.Tsim = 0.5
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.BaseLimit == 0 {
		c.BaseLimit = 10
	}
	if c.PerQueryLimit == 0 {
		c.PerQueryLimit = 200
	}
	return c
}

// Answer is one ranked result.
type Answer struct {
	Tuple relation.Tuple
	// Sim is the similarity to the user's query Q (the ranking key).
	Sim float64
	// BaseSim is the gating similarity to the base-set tuple that
	// retrieved this answer (1 for base-set tuples themselves).
	BaseSim float64
	// Seq is the discovery order: base-set tuples first, then relaxation
	// finds in schedule order. Under GuidedRelax the schedule relaxes
	// minimally first, so ascending Seq is a most-conservative-first
	// ordering — the paper's "first k tuples above Tsim" (§6.5).
	Seq int
}

// WorkStats records the cost of answering one query — the quantities behind
// the paper's Work/RelevantTuple efficiency metric (§6.3).
type WorkStats struct {
	QueriesIssued   int
	TuplesExtracted int // tuples returned by the source across all queries
	TuplesQualified int // tuples whose gating similarity exceeded Tsim
	SourceFailures  int
	// StepsPruned counts relaxation steps skipped because their Sim upper
	// bound fell below Tsim — queries the engine proved pointless without
	// issuing them (see Config.DisablePruning).
	StepsPruned int
}

// Result is the outcome of answering one imprecise query.
type Result struct {
	Query   *query.Query
	Precise *query.Query // the base query actually used (after generalization)
	Base    []relation.Tuple
	Answers []Answer // ranked by Sim descending, length <= K
	Work    WorkStats
}

// Answerer is anything that can answer an imprecise query with a ranked
// result; the AIMQ engine and the ROCK baseline both implement it, which is
// what the comparative experiments run against.
type Answerer interface {
	Name() string
	Answer(q *query.Query) (*Result, error)
}

// Engine is the AIMQ query engine (paper Figure 2's online half).
type Engine struct {
	Src     webdb.Source
	Est     *similarity.Estimator
	Relaxer Relaxer
	Cfg     Config
}

// New assembles an engine.
func New(src webdb.Source, est *similarity.Estimator, rel Relaxer, cfg Config) *Engine {
	return &Engine{Src: src, Est: est, Relaxer: rel, Cfg: cfg.withDefaults()}
}

// Name implements Answerer.
func (e *Engine) Name() string { return "AIMQ-" + e.Relaxer.Name() }

// Answer implements Algorithm 1.
func (e *Engine) Answer(q *query.Query) (*Result, error) {
	return e.AnswerContext(context.Background(), q)
}

// AnswerContext implements Algorithm 1 under a context: the relaxation loop
// checks ctx between source queries, and every source call runs under ctx,
// so a remote source (webdb.Client) aborts its in-flight request. On cancellation it does NOT discard work already
// done — it ranks whatever qualified so far and returns that partial Result
// alongside ctx.Err(), so a deadline degrades answer completeness instead of
// answering nothing. Callers must treat a non-nil error with a non-nil Result
// as "best effort under the deadline".
//
// When the context carries an obs.Recorder (obs.WithRecorder), the run is
// traced: stage spans (base_set, relax, rank), every base-query probe, every
// relaxation step as a compact record (its base tuple, dropped attributes
// and counts; the trace renders the query text and importance weights on
// read), and a per-attribute score decomposition of each returned answer.
// Without a recorder the instrumentation is free — zero additional
// allocations (BenchmarkAnswerNoRecorder). The recorder is also the only
// step trace: callers that want the steps read the finished trace's
// RelaxSteps.
func (e *Engine) AnswerContext(ctx context.Context, q *query.Query) (*Result, error) {
	cfg := e.Cfg.withDefaults()
	res := &Result{Query: q}
	rec := obs.FromContext(ctx)

	// Step 1: map Q to a precise base query with a non-null answerset.
	spBase := rec.StartSpan("base_set")
	base, precise, err := e.baseSet(ctx, q, cfg, &res.Work, rec)
	spBase.End()
	if err != nil {
		rec.SetError(err)
		if ctx.Err() != nil {
			// Cancelled before any base tuple was retrieved: there is
			// nothing to rank, but the Result still carries the work stats.
			return res, ctx.Err()
		}
		return nil, err
	}
	res.Base = base
	res.Precise = precise
	if rec.Active() {
		rec.SetBase(precise.String(), len(base))
	}

	sc := e.Src.Schema()
	all := relation.AttrSet(0)
	for a := 0; a < sc.Arity(); a++ {
		all = all.Add(a)
	}
	// Importance weights, computed once per request: the query's for
	// ranking by Sim(Q,·), all attributes' for the Tsim gate. The Sim(Q,·)
	// scorer reads the query's VSim rows once per request.
	qs := e.Est.PrepareQuery(q, e.Est.Ordering.ImportanceWeights(q.BoundAttrs()))
	gateWeights := e.Est.Ordering.ImportanceWeights(all)

	// Aes accumulates answers keyed by tuple content; a tuple reached via
	// several base tuples keeps its best gating similarity. Only a tuple that
	// clears the gate is hashed and looked up; the table is pooled, so the
	// lookup and insert allocate only when the table outgrows its last use.
	as := newAesTable(sc)
	defer as.release()
	// add makes t an answer, or raises the gating similarity of the answer
	// it already is; it returns the answer's index in as.ents and whether
	// the answer is new.
	add := func(t relation.Tuple, baseSim float64) (int, bool) {
		i, isNew := as.add(relation.HashTuple(sc, t), t, baseSim)
		if isNew {
			as.ents[i].Sim = qs.Score(t)
		}
		return i, isNew
	}

	// Base-set tuples are answers by construction.
	limit := cfg.BaseLimit
	if limit > len(base) {
		limit = len(base)
	}
	if rec.Active() {
		// A traced step records its base tuple and drop set; the trace
		// renders its query and dropped attributes from them on read.
		rec.SetStepRenderer(e.stepRenderer(base[:limit]))
	}
	for _, t := range base {
		i, _ := add(t, 1)
		as.ents[i].fromBase = true
	}

	// Steps 2–8: relax each base tuple's fully-bound query.
	qualified := len(as.ents)
	spRelax := rec.StartSpan("relax")
expansion:
	for bi, t := range base[:limit] {
		tq := query.FromTuple(sc, t)
		bound := tq.BoundAttrs()
		issued := 0
		// The gate scorer reads the base tuple's VSim rows once; the prune
		// caps read the same rows.
		gate := e.Est.PrepareTuple(t, gateWeights)
		var pb pruneBound
		pruning := !cfg.DisablePruning && e.Est.Ordering != nil
		if pruning {
			pb = e.pruneBoundFor(gate, bound, sc, cfg.KeyPruneMaxError)
		}
		for _, drop := range e.Relaxer.Schedule(bound) {
			if ctx.Err() != nil || (cfg.TargetRelevant > 0 && qualified >= cfg.TargetRelevant) {
				break expansion
			}
			if cfg.MaxQueriesPerBase > 0 && issued >= cfg.MaxQueriesPerBase {
				break
			}
			// Sim-bound prune: skip the step when no new tuple it retrieves
			// can clear the gate. The first step per base tuple is always
			// issued — a tuple identical to the base on every bound attribute
			// matches *any* relaxed query, so one issued step is what
			// guarantees such clones are retrieved even when every bound is
			// hopeless.
			if pruning && issued > 0 && pb.upperBound(drop) <= cfg.Tsim-pruneEps {
				res.Work.StepsPruned++
				continue
			}
			// Key-bound prune: the step keeps the mined key bound, so its
			// query still identifies the base tuple — every tuple it could
			// retrieve agrees with an already-answered base tuple on a key.
			// Unlike the Sim bound this needs no issued-first guard: the
			// base tuple itself is always in the answer set by construction.
			if pruning && pb.keyed && drop.Intersect(pb.key).Empty() {
				res.Work.StepsPruned++
				continue
			}
			issued++
			rq := tq.DropAttrs(drop)
			stepStart := rec.Since()
			tuples, err := e.Src.QueryContext(ctx, rq, cfg.PerQueryLimit)
			res.Work.QueriesIssued++
			if err != nil {
				if ctx.Err() != nil {
					// Cancelled mid-flight: keep what we have.
					break expansion
				}
				res.Work.SourceFailures++
				shed := errors.Is(err, webdb.ErrBreakerOpen)
				if rec.Active() {
					rec.AddStep(obs.StepRecord{
						Drop:      drop,
						ElapsedNs: int64(rec.Since() - stepStart),
						Base:      int32(bi),
						Failed:    true,
						Shed:      shed,
					})
				}
				if cfg.OnFailure == FailDegrade {
					if shed {
						// The breaker is shedding: every remaining query in
						// the schedule would fast-fail too. Rank what we have.
						break expansion
					}
					// The failure already consumed its share of the time
					// budget (the resilient wrapper retried with backoff);
					// move on to the next relaxation query.
					continue
				}
				if res.Work.SourceFailures > cfg.MaxSourceFailures {
					err = fmt.Errorf("aimq: relaxation query failed: %w", err)
					rec.SetError(err)
					return nil, err
				}
				continue
			}
			res.Work.TuplesExtracted += len(tuples)
			stepQualified, stepDups := 0, 0
			stepFound := len(as.found)
			for _, tp := range tuples {
				sim := gate.Score(tp)
				if sim > cfg.Tsim {
					i, isNew := add(tp, sim)
					if isNew {
						qualified++
						stepQualified++
					} else {
						stepDups++
					}
					if rec.Active() {
						as.found = append(as.found, foundBy{entry: int32(i)})
					}
				}
			}
			if rec.Active() {
				idx := rec.AddStep(obs.StepRecord{
					Drop:      drop,
					ElapsedNs: int64(rec.Since() - stepStart),
					Base:      int32(bi),
					Extracted: int32(len(tuples)),
					Qualified: int32(stepQualified),
					DupHits:   int32(stepDups),
				})
				for i := range as.found[stepFound:] {
					as.found[stepFound+i].step = int32(idx)
				}
			}
		}
	}
	spRelax.End()
	res.Work.TuplesQualified = qualified

	// Step 9: rank by similarity to Q and return top-k.
	spRank := rec.StartSpan("rank")
	top := as.topK(cfg.K)
	res.Answers = make([]Answer, len(top))
	for i, a := range top {
		res.Answers[i] = a.Answer
	}
	if rec.Active() {
		// Decompose each returned answer's Sim(Q,t) into per-attribute
		// weight × similarity terms and attach the steps that retrieved it.
		steps := as.foundSteps(top)
		for i, a := range top {
			_, contribs := e.Est.SimExplain(q, a.Tuple)
			rec.AddAnswer(obs.AnswerExplain{
				Rank:     i + 1,
				Sim:      a.Sim,
				BaseSim:  a.BaseSim,
				Contribs: contribs,
				FromBase: a.fromBase,
				Steps:    steps[i],
			})
		}
	}
	spRank.End()
	rec.SetError(ctx.Err())
	// A cancelled context surfaces here, after ranking: the partial answer
	// set is still returned.
	return res, ctx.Err()
}

// pruneEps is the float-safety margin of the Sim-bound prune: a step is
// skipped only when its upper bound sits at least this far below Tsim, so
// rounding in the bound arithmetic can never prune a step whose true bound
// equals the threshold.
const pruneEps = 1e-9

// pruneBound is the per-base-tuple state of the Sim-bound prune. For the
// base tuple t with bound attributes B (weights taken over all attributes,
// exactly as SimTuples computes the gating similarity):
//
//	boundSum   = Σ_{a∈B} w_a            — the gate score of an exact clone
//	penalty[a] = w_a × (1 − cap_a)      — similarity forfeited by dropping a
//
// where cap_a bounds how similar a *different* value of a can be to t.a:
// the largest mined cross-value similarity of t.a for categorical
// attributes, 1 for numeric ones (a dropped numeric value is unconstrained,
// so nothing is forfeited and numeric drops are never pruned on).
type pruneBound struct {
	boundSum float64
	penalty  []float64
	// key is the mined best key when the key-bound prune applies to this
	// base tuple: the key's error is within Config.KeyPruneMaxError and the
	// base tuple binds every key attribute. Zero (with keyed false) otherwise.
	key   relation.AttrSet
	keyed bool
}

// pruneBoundFor precomputes the prune state for one base tuple from its gate
// scorer (all-attribute gate weights; the caps read the scorer's VSim rows).
func (e *Engine) pruneBoundFor(gate *similarity.TupleScorer, bound relation.AttrSet, sc *relation.Schema, keyMaxErr float64) pruneBound {
	pb := pruneBound{penalty: make([]float64, sc.Arity())}
	if bk := e.Est.Ordering.BestKey; !bk.Attrs.Empty() && bk.Error <= keyMaxErr && bound.Contains(bk.Attrs) {
		pb.key = bk.Attrs
		pb.keyed = true
	}
	for _, a := range bound.Members() {
		w := gate.Weight(a)
		pb.boundSum += w
		cap := 1.0
		if sc.Type(a) == relation.Categorical {
			cap = gate.MaxVSim(a)
		}
		pb.penalty[a] = w * (1 - cap)
	}
	return pb
}

// upperBound is the largest gating similarity any tuple retrieved after
// dropping the given attribute set can score against the base tuple,
// ignoring exact matches on dropped attributes (those tuples also match
// shallower queries and are retrieved there — see TestPruningEquivalence).
func (pb pruneBound) upperBound(drop relation.AttrSet) float64 {
	ub := pb.boundSum
	for a := range pb.penalty {
		if drop.Has(a) {
			ub -= pb.penalty[a]
		}
	}
	return ub
}

// stepRenderer is what a traced request expanding base issues its steps
// from: the schema, the base tuples and the importance weights of the
// model that answers. The base slice is copied so a retained trace does not
// keep the rest of the base set.
func (e *Engine) stepRenderer(base []relation.Tuple) obs.StepRenderer {
	r := obs.StepRenderer{Schema: e.Src.Schema(), Base: slices.Clone(base)}
	if ord := e.Est.Ordering; ord != nil {
		r.Wimp = ord.Wimp
	}
	return r
}

// baseSet maps Q to the precise query Qpr and returns its answers. If Qpr
// is empty it is generalized along the relaxation schedule — dropping the
// least important attributes first — until some generalization returns
// tuples (paper footnote 2). As a last resort the unconstrained query is
// issued.
func (e *Engine) baseSet(ctx context.Context, q *query.Query, cfg Config, work *WorkStats, rec *obs.Recorder) ([]relation.Tuple, *query.Query, error) {
	qpr := q.ToPrecise()
	var lastFail error
	tryQuery := func(cand *query.Query) ([]relation.Tuple, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tuples, err := e.Src.QueryContext(ctx, cand, cfg.PerQueryLimit)
		work.QueriesIssued++
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if rec.Active() {
				rec.BaseProbe(cand.String(), 0, true)
			}
			work.SourceFailures++
			lastFail = err
			if cfg.OnFailure == FailDegrade {
				// Keep generalizing: a later, broader probe may still land
				// (and if the breaker is open, each shed probe is ~free).
				return nil, nil
			}
			if work.SourceFailures > cfg.MaxSourceFailures {
				return nil, fmt.Errorf("aimq: base query failed: %w", err)
			}
			return nil, nil
		}
		if rec.Active() {
			rec.BaseProbe(cand.String(), len(tuples), false)
		}
		work.TuplesExtracted += len(tuples)
		return tuples, nil
	}

	tuples, err := tryQuery(qpr)
	if err != nil {
		return nil, nil, err
	}
	if len(tuples) > 0 {
		return tuples, qpr, nil
	}

	// First generalization stage: widen numeric like-constraints into
	// progressively looser ranges before dropping any attribute. Tightening
	// "Price like 10000" to Price = 10000 is often what empties Qpr, and
	// the paper's motivating example ("the user may also be interested in a
	// Camry priced $10500") says near-value matches are the intended base —
	// widening reduces the constraint while keeping every attribute's
	// intent.
	for _, width := range []float64{0.05, 0.15, 0.30} {
		wide, any := widenNumericLikes(q, qpr, width)
		if !any {
			break
		}
		tuples, err := tryQuery(wide)
		if err != nil {
			return nil, nil, err
		}
		if len(tuples) > 0 {
			return tuples, wide, nil
		}
	}

	bound := qpr.BoundAttrs()
	if bound.Size() > 1 {
		for _, drop := range e.Relaxer.Chain(bound) {
			gen := qpr.DropAttrs(drop)
			tuples, err := tryQuery(gen)
			if err != nil {
				return nil, nil, err
			}
			if len(tuples) > 0 {
				return tuples, gen, nil
			}
		}
	}
	// Unconstrained fallback: footnote 2 assumes *some* generalization is
	// non-null; an empty source is the only way to get here.
	unconstrained := query.New(qpr.Schema)
	tuples, err = tryQuery(unconstrained)
	if err != nil {
		return nil, nil, err
	}
	if len(tuples) == 0 {
		if lastFail != nil {
			// Every probe failed (e.g. breaker open): keep the cause in the
			// chain so callers can classify it (errors.Is(ErrBreakerOpen)).
			return nil, nil, fmt.Errorf("aimq: source returned no tuples for %s or any generalization: %w", q, lastFail)
		}
		return nil, nil, fmt.Errorf("aimq: source returned no tuples for %s or any generalization", q)
	}
	return tuples, unconstrained, nil
}

// widenNumericLikes returns a copy of the precise query qpr with every
// numeric attribute that the original query bound via "like" widened to an
// inclusive ±width range around its value. any reports whether anything was
// widened (false when the query has no numeric like-constraints).
func widenNumericLikes(orig, qpr *query.Query, width float64) (*query.Query, bool) {
	likeNumeric := relation.AttrSet(0)
	for _, p := range orig.Preds {
		if p.Op == query.OpLike && orig.Schema.Type(p.Attr) == relation.Numeric {
			likeNumeric = likeNumeric.Add(p.Attr)
		}
	}
	if likeNumeric.Empty() {
		return qpr, false
	}
	out := qpr.Clone()
	for i := range out.Preds {
		p := &out.Preds[i]
		if p.Op != query.OpEq || !likeNumeric.Has(p.Attr) {
			continue
		}
		v := p.Value.Num
		delta := width * v
		if delta < 0 {
			delta = -delta
		}
		if delta == 0 {
			delta = width
		}
		p.Op = query.OpRange
		p.Value = relation.Numv(v - delta)
		p.Hi = relation.Numv(v + delta)
	}
	return out, true
}
