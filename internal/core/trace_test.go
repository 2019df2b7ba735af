package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/datagen"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

// traceFixture builds a small deterministic engine for trace assertions.
func traceFixture(t testing.TB) (*Engine, *query.Query) {
	sc := relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
	rel := relation.New(sc)
	rng := rand.New(rand.NewSource(7))
	models := []struct {
		mk, model string
		price     float64
	}{
		{"Toyota", "Camry", 10000},
		{"Toyota", "Corolla", 8000},
		{"Honda", "Accord", 10500},
		{"Honda", "Civic", 8200},
	}
	for i := 0; i < 400; i++ {
		m := models[rng.Intn(len(models))]
		rel.Append(relation.Tuple{
			relation.Cat(m.mk), relation.Cat(m.model),
			relation.Numv(m.price + float64(rng.Intn(900))),
		})
	}
	mined := tane.Miner{Terr: 0.3, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(mined)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	idx := supertuple.Builder{Buckets: 8}.Build(rel)
	est := similarity.New(idx, ord, similarity.Config{})
	eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{K: 5, Tsim: 0.4})
	q, err := query.Parse(sc, "Model like Camry, Price like 10000")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return eng, q
}

func TestAnswerContextRecordsTrace(t *testing.T) {
	eng, q := traceFixture(t)
	rec := obs.NewRecorder("t-1", q.String())
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := eng.AnswerContext(ctx, q)
	if err != nil {
		t.Fatalf("AnswerContext: %v", err)
	}
	tr := rec.Finish()

	// Stage spans cover the Algorithm 1 phases.
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"base_set", "relax", "rank"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, tr.Spans)
		}
	}

	// The base query was recorded with its probe history.
	if tr.BaseQuery == "" || tr.BaseCount != len(res.Base) {
		t.Errorf("base: %q count %d, want count %d", tr.BaseQuery, tr.BaseCount, len(res.Base))
	}
	if len(tr.BaseProbe) == 0 {
		t.Errorf("no base probes recorded")
	}

	// One step per issued relaxation query (base probes are separate).
	baseProbes := len(tr.BaseProbe)
	if got, want := tr.NumSteps(), res.Work.QueriesIssued-baseProbes; got != want {
		t.Errorf("steps = %d, want %d (%d issued − %d base probes)", got, want, res.Work.QueriesIssued, baseProbes)
	}
	extracted, qualified := 0, 0
	for i, s := range tr.RelaxSteps() {
		if s.Step != i {
			t.Errorf("step %d has index %d", i, s.Step)
		}
		if len(s.Dropped) == 0 || s.Query == "" {
			t.Errorf("step %d lacks relaxed attributes or query: %+v", i, s)
		}
		extracted += s.Extracted
		qualified += s.Qualified
	}
	// Step tuple accounting reconciles with the engine's work stats: the
	// base probes account for the remaining extractions.
	baseExtracted := 0
	for _, p := range tr.BaseProbe {
		baseExtracted += p.Tuples
	}
	if extracted+baseExtracted != res.Work.TuplesExtracted {
		t.Errorf("steps extracted %d + base %d != work %d", extracted, baseExtracted, res.Work.TuplesExtracted)
	}

	// Every answer is decomposed, contributions sum to its Sim exactly,
	// and its provenance (base set or relaxation steps) is recorded.
	if len(tr.Answers) != len(res.Answers) {
		t.Fatalf("answer explains = %d, want %d", len(tr.Answers), len(res.Answers))
	}
	for i, ae := range tr.Answers {
		if ae.Rank != i+1 {
			t.Errorf("answer %d rank %d", i, ae.Rank)
		}
		if ae.Sim != res.Answers[i].Sim {
			t.Errorf("answer %d sim %v != result %v", i, ae.Sim, res.Answers[i].Sim)
		}
		sum := 0.0
		for _, c := range ae.Contribs {
			if c.Term != c.Weight*c.Sim {
				t.Errorf("answer %d: term %v != weight %v × sim %v", i, c.Term, c.Weight, c.Sim)
			}
			sum += c.Term
		}
		if sum != ae.Sim {
			t.Errorf("answer %d: contributions sum to %v, Sim is %v", i, sum, ae.Sim)
		}
		if !ae.FromBase && len(ae.Steps) == 0 {
			t.Errorf("answer %d has no provenance: not from base and no steps", i)
		}
		for _, s := range ae.Steps {
			if s < 0 || s >= tr.NumSteps() {
				t.Errorf("answer %d references step %d outside [0,%d)", i, s, tr.NumSteps())
			}
		}
	}
}

func TestAnswerContextTraceMatchesUntracedRun(t *testing.T) {
	eng, q := traceFixture(t)
	plain, err := eng.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("t-2", q.String())
	traced, err := eng.AnswerContext(obs.WithRecorder(context.Background(), rec), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Answers) != len(traced.Answers) {
		t.Fatalf("tracing changed the answer count: %d vs %d", len(plain.Answers), len(traced.Answers))
	}
	for i := range plain.Answers {
		if plain.Answers[i].Sim != traced.Answers[i].Sim {
			t.Errorf("answer %d sim differs under tracing: %v vs %v", i, plain.Answers[i].Sim, traced.Answers[i].Sim)
		}
	}
	if plain.Work != traced.Work {
		t.Errorf("tracing changed the work stats: %+v vs %+v", plain.Work, traced.Work)
	}
}

// TestEnginePlansSharedWithinTrace: over a generated CarDB, the steps of
// one traced answer whose engine plans hold equal terms share one backing
// array, most steps reuse a plan an earlier step recorded, and every step's
// plan still equals what a fresh EXPLAIN of the step's query compiles.
func TestEnginePlansSharedWithinTrace(t *testing.T) {
	rel := datagen.GenerateCarDB(4000, 1).Rel
	mined := tane.Miner{Terr: 0.25, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(mined)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	est := similarity.New(supertuple.Builder{Buckets: 10}.Build(rel), ord, similarity.Config{})
	src := webdb.NewLocal(rel)
	eng := New(src, est, &Guided{Ord: ord}, Config{K: 10, Tsim: 0.5})
	sc := rel.Schema()
	q, err := query.Parse(sc, "Model like Camry, Year like 1999")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder("plans", q.String())
	res, err := eng.AnswerContext(obs.WithRecorder(context.Background(), rec), q)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()

	arrays := map[*obs.EnginePlanTerm]bool{}
	byContent := map[string]*obs.EnginePlanTerm{}
	steps := 0
	for _, st := range tr.RelaxSteps() {
		if st.Engine == nil || len(st.Engine.Plan) == 0 {
			continue
		}
		steps++
		plan := st.Engine.Plan
		head := &plan[0]
		arrays[head] = true
		key := fmt.Sprintf("%+v", plan)
		if prev, ok := byContent[key]; ok && prev != head {
			t.Errorf("step %d: plan %s has its own array, not the one an earlier step shares", st.Step, key)
		}
		byContent[key] = head

		// The step's query: its base tuple's fully bound query minus the
		// dropped attributes.
		var drop relation.AttrSet
		for _, d := range st.Dropped {
			drop = drop.Add(sc.MustIndex(d.Attr))
		}
		rq := query.FromTuple(sc, res.Base[st.Base]).DropAttrs(drop)
		if got := rq.String(); got != st.Query {
			t.Fatalf("step %d: rebuilt query %q, trace has %q", st.Step, got, st.Query)
		}
		var fresh obs.EngineExec
		src.Engine().ExecuteExplained(rq, eng.Cfg.PerQueryLimit, &fresh)
		if !reflect.DeepEqual(fresh.Plan, plan) {
			t.Errorf("step %d: recorded plan %+v, fresh EXPLAIN compiles %+v", st.Step, plan, fresh.Plan)
		}
	}
	if steps < 100 {
		t.Fatalf("only %d steps carry a plan; the fixture should issue hundreds", steps)
	}
	if len(arrays) != len(byContent) || len(arrays)*4 > steps {
		t.Errorf("%d steps hold %d plan arrays for %d distinct plans, want one array per distinct plan and fewer than a quarter as many arrays as steps",
			steps, len(arrays), len(byContent))
	}
	t.Logf("%d steps over %d base tuples share %d plan arrays", steps, len(res.Base), len(arrays))
}

// issuedLog answers from Source and logs the text of every query sent.
type issuedLog struct {
	webdb.Source
	texts []string
}

func (l *issuedLog) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	l.texts = append(l.texts, q.String())
	return l.Source.QueryContext(ctx, q, limit)
}

// droppedAttrsOracle is how a step's dropped attributes were rendered when
// every step kept them: each member of drop with the engine's mined
// importance weight.
func droppedAttrsOracle(e *Engine, drop relation.AttrSet) []obs.DroppedAttr {
	sc := e.Src.Schema()
	out := make([]obs.DroppedAttr, 0, drop.Size())
	for _, a := range drop.Members() {
		w := 0.0
		if ord := e.Est.Ordering; ord != nil && a < len(ord.Wimp) {
			w = ord.Wimp[a]
		}
		out = append(out, obs.DroppedAttr{Attr: sc.Attr(a).Name, Wimp: w})
	}
	return out
}

// TestStepRenderingMatchesIssuedQueries: a trace renders its steps' text on
// read, so it must reproduce what was issued. Over seeded random relations
// with nulls, every rendered step of a traced answer names the query the
// source was sent for it, and for steps over random base tuples and drop
// sets (empty, full and unbound attributes included) the rendered query and
// dropped attributes equal query.FromTuple(sc, base).DropAttrs(drop).String()
// and the old eager rendering.
func TestStepRenderingMatchesIssuedQueries(t *testing.T) {
	var steps, nullBases int
	for _, seed := range []int64{1, 2, 3, 4} {
		rel := oracleDB(300, seed)
		sc := rel.Schema()
		ord, est := oraclePipeline(t, rel)
		src := &issuedLog{Source: webdb.NewLocal(rel)}
		eng := New(src, est, &Guided{Ord: ord}, Config{K: 5, Tsim: 0.4, BaseLimit: 4, PerQueryLimit: 60})
		for _, q := range oracleQueries(rel, 6, seed) {
			src.texts = nil
			rec := obs.NewRecorder("render", q.String())
			res, err := eng.AnswerContext(obs.WithRecorder(context.Background(), rec), q)
			if err != nil {
				t.Fatalf("seed %d, %q: %v", seed, q, err)
			}
			tr := rec.Finish()
			issued := src.texts[len(tr.BaseProbe):]
			rendered := tr.RelaxSteps()
			if len(rendered) != len(issued) {
				t.Fatalf("seed %d, %q: %d rendered steps, %d relaxation queries issued", seed, q, len(rendered), len(issued))
			}
			for i, st := range rendered {
				if st.Query != issued[i] {
					t.Errorf("seed %d, %q, step %d: rendered %q, issued %q", seed, q, i, st.Query, issued[i])
				}
				if len(st.Dropped) != tr.StepDrops(i) {
					t.Errorf("seed %d, %q, step %d: %d dropped attributes, record drops %d", seed, q, i, len(st.Dropped), tr.StepDrops(i))
				}
			}
			steps += len(rendered)
			for _, b := range res.Base[:min(len(res.Base), eng.Cfg.BaseLimit)] {
				if slices.ContainsFunc(b, relation.Value.IsNull) {
					nullBases++
				}
			}
		}

		rng := rand.New(rand.NewSource(seed))
		full := uint64(1)<<sc.Arity() - 1
		rec := obs.NewRecorder("drops", "")
		var bases []relation.Tuple
		var drops []relation.AttrSet
		for i := 0; i < 300; i++ {
			base := rel.Tuple(rng.Intn(rel.Size()))
			drop := relation.AttrSet(rng.Uint64() & full)
			switch i {
			case 0:
				drop = 0
			case 1:
				drop = relation.AttrSet(full)
			}
			bases = append(bases, base)
			drops = append(drops, drop)
			rec.AddStep(obs.StepRecord{Drop: drop, Base: int32(i)})
		}
		rec.SetStepRenderer(eng.stepRenderer(bases))
		for i, st := range rec.Finish().RelaxSteps() {
			if want := query.FromTuple(sc, bases[i]).DropAttrs(drops[i]).String(); st.Query != want {
				t.Errorf("seed %d: base %v drop %b: query %q, want %q", seed, bases[i], drops[i], st.Query, want)
			}
			if want := droppedAttrsOracle(eng, drops[i]); !reflect.DeepEqual(st.Dropped, want) {
				t.Errorf("seed %d: drop %b: dropped %+v, want %+v", seed, drops[i], st.Dropped, want)
			}
		}
	}
	if steps < 200 || nullBases == 0 {
		t.Errorf("coverage: %d rendered steps, %d expanded base tuples with nulls; want at least 200 and 1", steps, nullBases)
	}
}

// TestTracedStepAllocs: a traced answer allocates at most one object per
// issued relaxation step more than the untraced answer. A step record is an
// append to a flat slice, its text is rendered on read, its engine EXPLAIN
// is kept inline and a repeated engine plan compiles into the recorder's
// spare buffer; the per-request costs (recorder, spans, answer
// explanations) spread over hundreds of steps.
func TestTracedStepAllocs(t *testing.T) {
	rel := datagen.GenerateCarDB(4000, 1).Rel
	ord, err := afd.Order(tane.Miner{Terr: 0.25, MaxLHS: 2}.Mine(rel))
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	est := similarity.New(supertuple.Builder{Buckets: 10}.Build(rel), ord, similarity.Config{})
	eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{K: 10, Tsim: 0.5})
	q, err := query.Parse(rel.Schema(), "Model like Camry, Year like 1999")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	answer := func(ctx context.Context) {
		if _, err := eng.AnswerContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	answer(ctx) // warm the answer-table pool
	untraced := testing.AllocsPerRun(10, func() { answer(ctx) })
	steps := 0
	traced := testing.AllocsPerRun(10, func() {
		rec := obs.NewRecorder("allocs", "q")
		answer(obs.WithRecorder(ctx, rec))
		steps = rec.Finish().NumSteps()
	})
	perStep := (traced - untraced) / float64(steps)
	t.Logf("%d steps: %.0f allocs untraced, %.0f traced, %.3f more per step", steps, untraced, traced, perStep)
	if steps < 100 {
		t.Fatalf("only %d steps; the fixture should issue hundreds", steps)
	}
	if perStep > 1 {
		t.Errorf("tracing costs %.3f allocations per step, want at most 1", perStep)
	}
}

// BenchmarkAnswerNoRecorder measures the full Algorithm 1 hot path with the
// instrumentation compiled in but no recorder installed — compare allocs/op
// against BenchmarkAnswerWithRecorder and against the pre-observability
// baseline: the no-recorder path must not allocate more than before.
func BenchmarkAnswerNoRecorder(b *testing.B) {
	eng, q := traceFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnswerContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerWithRecorder is the traced comparison point.
func BenchmarkAnswerWithRecorder(b *testing.B) {
	eng, q := traceFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder("b", "q")
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, err := eng.AnswerContext(ctx, q); err != nil {
			b.Fatal(err)
		}
		rec.Finish()
	}
}
