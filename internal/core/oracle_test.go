package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

// oracleAnswerContext is Engine.AnswerContext as it stood before the answer
// bookkeeping was made cheap, kept verbatim as the ranking oracle: a string
// key built per tuple and again per sort comparison, a map of *Answer, the
// fromBase/foundBy maps, a full sort of every qualified answer, and
// importance weights recomputed on every Sim/SimTuples call. The only edits
// are the weights passed explicitly (per call, as the old signatures
// computed them) and the removed Config.Trace record.
func oracleAnswerContext(e *Engine, ctx context.Context, q *query.Query) (*Result, error) {
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

	// Aes accumulates answers keyed by tuple content; a tuple reached via
	// several base tuples keeps its best gating similarity.
	aes := make(map[string]*Answer)
	keyOf := func(t relation.Tuple) string {
		k := ""
		for i, v := range t {
			k += v.Key(sc.Type(i)) + "\x1f"
		}
		return k
	}
	seq := 0
	add := func(t relation.Tuple, baseSim float64) (string, bool) {
		k := keyOf(t)
		if a, ok := aes[k]; ok {
			if baseSim > a.BaseSim {
				a.BaseSim = baseSim
			}
			return k, false
		}
		aes[k] = &Answer{Tuple: t, Sim: e.Est.Sim(q, t, e.Est.Ordering.ImportanceWeights(q.BoundAttrs())), BaseSim: baseSim, Seq: seq}
		seq++
		return k, true
	}

	// Tracing state: which relaxation steps retrieved each tuple, and which
	// tuples came from the base set. Only materialized when a recorder is
	// installed, so the untraced path allocates nothing extra.
	var (
		foundBy  map[string][]int
		fromBase map[string]bool
		stepKeys []string // keys retrieved by the step being recorded
	)
	if rec.Active() {
		foundBy = make(map[string][]int)
		fromBase = make(map[string]bool)
	}

	// Base-set tuples are answers by construction.
	limit := cfg.BaseLimit
	if limit > len(base) {
		limit = len(base)
	}
	for _, t := range base {
		k, _ := add(t, 1)
		if fromBase != nil {
			fromBase[k] = true
		}
	}

	// Steps 2–8: relax each base tuple's fully-bound query.
	qualified := len(aes)
	spRelax := rec.StartSpan("relax")
expansion:
	for bi, t := range base[:limit] {
		tq := query.FromTuple(sc, t)
		bound := tq.BoundAttrs()
		issued := 0
		var pb pruneBound
		pruning := !cfg.DisablePruning && e.Est.Ordering != nil
		if pruning {
			pb = e.pruneBoundFor(e.Est.PrepareTuple(t, e.Est.Ordering.ImportanceWeights(all)), bound, sc, cfg.KeyPruneMaxError)
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
			tuples, err := webdb.QueryContext(ctx, e.Src, rq, cfg.PerQueryLimit)
			res.Work.QueriesIssued++
			if err != nil {
				if ctx.Err() != nil {
					// Cancelled mid-flight: keep what we have.
					break expansion
				}
				res.Work.SourceFailures++
				shed := errors.Is(err, webdb.ErrBreakerOpen)
				if rec.Active() {
					rec.AddStep(obs.RelaxStep{
						Base:      bi,
						Dropped:   e.droppedAttrs(drop),
						Query:     rq.String(),
						Failed:    true,
						Shed:      shed,
						ElapsedMs: float64(rec.Since()-stepStart) / 1e6,
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
			stepKeys = stepKeys[:0]
			for _, tp := range tuples {
				sim := e.Est.SimTuples(t, tp, e.Est.Ordering.ImportanceWeights(all))
				if sim > cfg.Tsim {
					k, isNew := add(tp, sim)
					if isNew {
						qualified++
						stepQualified++
					} else {
						stepDups++
					}
					if foundBy != nil {
						stepKeys = append(stepKeys, k)
					}
				}
			}
			if rec.Active() {
				idx := rec.AddStep(obs.RelaxStep{
					Base:      bi,
					Dropped:   e.droppedAttrs(drop),
					Query:     rq.String(),
					Extracted: len(tuples),
					Qualified: stepQualified,
					DupHits:   stepDups,
					ElapsedMs: float64(rec.Since()-stepStart) / 1e6,
				})
				for _, k := range stepKeys {
					foundBy[k] = append(foundBy[k], idx)
				}
			}
		}
	}
	spRelax.End()
	res.Work.TuplesQualified = qualified

	// Step 9: rank by similarity to Q and return top-k.
	spRank := rec.StartSpan("rank")
	answers := make([]Answer, 0, len(aes))
	for _, a := range aes {
		answers = append(answers, *a)
	}
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Sim != answers[j].Sim {
			return answers[i].Sim > answers[j].Sim
		}
		return keyOf(answers[i].Tuple) < keyOf(answers[j].Tuple)
	})
	if len(answers) > cfg.K {
		answers = answers[:cfg.K]
	}
	res.Answers = answers
	if rec.Active() {
		// Decompose each returned answer's Sim(Q,t) into per-attribute
		// weight × similarity terms and attach the steps that retrieved it.
		for i, a := range answers {
			k := keyOf(a.Tuple)
			_, contribs := e.Est.SimExplain(q, a.Tuple)
			rec.AddAnswer(obs.AnswerExplain{
				Rank:     i + 1,
				Sim:      a.Sim,
				BaseSim:  a.BaseSim,
				Contribs: contribs,
				FromBase: fromBase[k],
				Steps:    foundBy[k],
			})
		}
	}
	spRank.End()
	rec.SetError(ctx.Err())
	// A cancelled context surfaces here, after ranking: the partial answer
	// set is still returned.
	return res, ctx.Err()
}

// oracleDB is a random relation built to stress the ranking bookkeeping:
// nulls in every attribute, prices whose key order differs from their
// numeric order ("10000" sorts before "9000"), and small domains, so that
// distinct tuples tie exactly on Sim(Q,·) and several base tuples reach the
// same answers.
func oracleDB(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	models := []struct{ model, mk string }{
		{"Camry", "Toyota"}, {"Corolla", "Toyota"}, {"Accord", "Honda"}, {"Civic", "Honda"}, {"F150", "Ford"},
	}
	classes := []string{"sedan", "compact", "truck"}
	prices := []float64{9000, 9500, 10000, 10500, 12000}
	maybe := func(v relation.Value) relation.Value {
		if rng.Intn(12) == 0 {
			return relation.NullValue
		}
		return v
	}
	r := relation.New(carSchema())
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		r.Append(relation.Tuple{
			maybe(relation.Cat(m.mk)),
			maybe(relation.Cat(m.model)),
			maybe(relation.Cat(classes[rng.Intn(len(classes))])),
			maybe(relation.Numv(float64(2001 + rng.Intn(3)))),
			maybe(relation.Numv(prices[rng.Intn(len(prices))])),
		})
	}
	return r
}

// oracleQueries draws like-queries binding one to three non-null values of
// random tuples, plus one numeric like over a price absent from the data.
func oracleQueries(rel *relation.Relation, n int, seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	sc := rel.Schema()
	out := []*query.Query{query.New(sc).Where("Price", query.OpLike, relation.Numv(9700))}
	for len(out) < n {
		t := rel.Tuple(rng.Intn(rel.Size()))
		q := query.New(sc)
		for _, a := range rng.Perm(sc.Arity())[:1+rng.Intn(3)] {
			if !t[a].IsNull() {
				q = q.Where(sc.Attr(a).Name, query.OpLike, t[a])
			}
		}
		if len(q.Preds) > 0 {
			out = append(out, q)
		}
	}
	return out
}

// TestRankingMatchesOracle compares the engine's gate-then-key Aes, keyed
// entries and bounded top-k heap with the old bookkeeping on seeded random
// relations: every answer's tuple, Sim and BaseSim bits and Seq, the work
// stats and — under a recorder — every step record and each answer's
// FromBase and found-by steps must be identical. Coverage counters assert
// the run actually exercised exact-Sim ties broken against numeric order,
// answers with nulls, answers reached from several base tuples, answers
// re-retrieved under the same base tuple (counted as duplicate hits), and
// answers whose BaseSim a later base tuple raised.
func TestRankingMatchesOracle(t *testing.T) {
	var ties, keyOrderTies, nulls, multiBase, sameBase, raised int
	for _, seed := range []int64{1, 2, 3} {
		rel := oracleDB(400, seed)
		ord, est := oraclePipeline(t, rel)
		all := relation.AttrSet(0)
		for a := 0; a < rel.Schema().Arity(); a++ {
			all = all.Add(a)
		}
		gateWeights := ord.ImportanceWeights(all)
		for _, q := range oracleQueries(rel, 8, seed) {
			for _, k := range []int{1, 10, 1 << 20} {
				eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{
					K: k, Tsim: 0.4, BaseLimit: 4, PerQueryLimit: 60,
				})
				for _, traced := range []bool{false, true} {
					got, gotTr := runTraced(t, traced, q, eng.AnswerContext)
					want, wantTr := runTraced(t, traced, q, func(ctx context.Context, q *query.Query) (*Result, error) {
						return oracleAnswerContext(eng, ctx, q)
					})
					where := fmt.Sprintf("seed %d, %q, k=%d, traced=%v", seed, q, k, traced)
					compareResults(t, where, got, want)
					if !reflect.DeepEqual(gotTr.Steps, wantTr.Steps) {
						t.Errorf("%s: relaxation step records differ", where)
					}
					if len(gotTr.Answers) != len(wantTr.Answers) {
						t.Fatalf("%s: %d answer explains, oracle %d", where, len(gotTr.Answers), len(wantTr.Answers))
					}
					for i, a := range gotTr.Answers {
						w := wantTr.Answers[i]
						if a.FromBase != w.FromBase || !reflect.DeepEqual(a.Steps, w.Steps) {
							t.Errorf("%s: answer %d provenance from_base=%v steps=%v, oracle from_base=%v steps=%v",
								where, i, a.FromBase, a.Steps, w.FromBase, w.Steps)
						}
						bases := map[int]bool{}
						for _, s := range a.Steps {
							b := gotTr.Steps[s].Base
							if bases[b] {
								sameBase++
							}
							bases[b] = true
						}
						if len(bases) > 1 {
							multiBase++
						}
						if !a.FromBase && len(a.Steps) > 0 {
							first := got.Base[gotTr.Steps[a.Steps[0]].Base]
							if a.BaseSim > est.SimTuples(first, got.Answers[i].Tuple, gateWeights) {
								raised++
							}
						}
					}
					for i, a := range want.Answers {
						for _, v := range a.Tuple {
							if v.IsNull() {
								nulls++
								break
							}
						}
						if i == 0 || a.Sim != want.Answers[i-1].Sim {
							continue
						}
						ties++
						prev, cur := want.Answers[i-1].Tuple[4], a.Tuple[4]
						if !prev.IsNull() && !cur.IsNull() && prev.Num > cur.Num {
							keyOrderTies++
						}
					}
				}
			}
		}
	}
	t.Logf("coverage: %d exact-Sim ties (%d broken against numeric price order), %d answers with nulls, "+
		"%d answers found from several base tuples, %d re-retrievals under the same base tuple, %d BaseSims raised by a later base tuple",
		ties, keyOrderTies, nulls, multiBase, sameBase, raised)
	if ties == 0 || keyOrderTies == 0 || nulls == 0 || multiBase == 0 || sameBase == 0 || raised == 0 {
		t.Errorf("the random relations did not exercise every case the oracle pins")
	}
}

// TestSeparatorBytesKeepAnswersApart: two tuples whose categorical strings
// concatenate to the same bytes around the key's 0x1f separator are
// distinct answers. A key that appended strings raw gave both one key, and
// one of them vanished from Aes.
func TestSeparatorBytesKeepAnswersApart(t *testing.T) {
	rel := oracleDB(400, 1)
	twins := []relation.Tuple{
		{relation.Cat("X\x1fY"), relation.Cat("Z"), relation.Cat("sedan"), relation.Numv(2002), relation.Numv(9500)},
		{relation.Cat("X"), relation.Cat("Y\x1fZ"), relation.Cat("sedan"), relation.Numv(2002), relation.Numv(9500)},
	}
	for _, tp := range twins {
		rel.Append(tp)
	}
	ord, est := oraclePipeline(t, rel)
	eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{K: 1000, Tsim: 0.01})
	res, err := eng.Answer(query.New(rel.Schema()).Where("Class", query.OpLike, relation.Cat("sedan")))
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range twins {
		found := false
		for _, a := range res.Answers {
			found = found || reflect.DeepEqual(a.Tuple, tw)
		}
		if !found {
			t.Errorf("%d answers lack %q", len(res.Answers), tw.Render(rel.Schema()))
		}
	}
}

// TestHugeKAllocatesPerAnswer pins that the top-k heap is sized by the
// answers found, not by Config.K.
func TestHugeKAllocatesPerAnswer(t *testing.T) {
	if top := (&aesTable{ents: make([]entry, 3)}).topK(1 << 30); cap(top) != 3 {
		t.Errorf("topK over 3 entries with k=1<<30 has capacity %d", cap(top))
	}
	rel := oracleDB(400, 1)
	ord, est := oraclePipeline(t, rel)
	eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{K: 1 << 30, Tsim: 0.4})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.Answer(q)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("no answers")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("K=1<<30 allocated %d bytes for %d answers", grew, len(res.Answers))
	}
}

// oraclePipeline mines the model for an oracle relation. Its small domains
// admit no tight key, so the error threshold is loose.
func oraclePipeline(t testing.TB, rel *relation.Relation) (*afd.Ordering, *similarity.Estimator) {
	t.Helper()
	ord, err := afd.Order(tane.Miner{Terr: 0.95, MaxLHS: 2}.Mine(rel))
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	return ord, similarity.New(supertuple.Builder{Buckets: 6}.Build(rel), ord, similarity.Config{})
}

// runTraced answers q, under a fresh recorder when traced, and returns the
// result with the finished trace, step and engine timings zeroed for
// comparison.
func runTraced(t *testing.T, traced bool, q *query.Query, answer func(context.Context, *query.Query) (*Result, error)) (*Result, obs.Trace) {
	t.Helper()
	ctx := context.Background()
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder("oracle", q.String())
		ctx = obs.WithRecorder(ctx, rec)
	}
	res, err := answer(ctx, q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	tr := rec.Finish()
	for i := range tr.Steps {
		tr.Steps[i].ElapsedMs = 0
		if ex := tr.Steps[i].Engine; ex != nil {
			ex.ElapsedUs = 0
		}
	}
	return res, tr
}

// compareResults requires bit-identical answers and identical work stats.
func compareResults(t *testing.T, where string, got, want *Result) {
	t.Helper()
	if got.Work != want.Work {
		t.Errorf("%s: work %+v, oracle %+v", where, got.Work, want.Work)
	}
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, oracle %d", where, len(got.Answers), len(want.Answers))
	}
	for i, a := range got.Answers {
		w := want.Answers[i]
		if !reflect.DeepEqual(a.Tuple, w.Tuple) || math.Float64bits(a.Sim) != math.Float64bits(w.Sim) ||
			math.Float64bits(a.BaseSim) != math.Float64bits(w.BaseSim) || a.Seq != w.Seq {
			t.Errorf("%s: answer %d = %v sim %v base %v seq %d, oracle %v sim %v base %v seq %d",
				where, i, a.Tuple, a.Sim, a.BaseSim, a.Seq, w.Tuple, w.Sim, w.BaseSim, w.Seq)
		}
	}
}
