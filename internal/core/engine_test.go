package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"aimq/internal/afd"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

func carSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Class", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
	)
}

// testDB builds a small car database with planted structure: models belong
// to one make and class; price depends on model and year.
func testDB(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	models := []struct {
		model, mk, class string
		basePrice        float64
	}{
		{"Camry", "Toyota", "sedan", 12000},
		{"Corolla", "Toyota", "compact", 9000},
		{"Accord", "Honda", "sedan", 12500},
		{"Civic", "Honda", "compact", 9500},
		{"F150", "Ford", "truck", 22000},
		{"Focus", "Ford", "compact", 9200},
	}
	r := relation.New(carSchema())
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		year := 1995 + rng.Intn(12)
		age := float64(2006 - year)
		price := m.basePrice*(1-0.06*age) + float64(rng.Intn(800))
		r.Append(relation.Tuple{
			relation.Cat(m.mk), relation.Cat(m.model), relation.Cat(m.class),
			relation.Numv(float64(year)), relation.Numv(price),
		})
	}
	return r
}

// pipeline builds the full offline stack over rel.
func pipeline(t testing.TB, rel *relation.Relation) (*afd.Ordering, *similarity.Estimator) {
	t.Helper()
	res := tane.Miner{Terr: 0.25, MaxLHS: 2}.Mine(rel)
	ord, err := afd.Order(res)
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	idx := supertuple.Builder{Buckets: 10}.Build(rel)
	return ord, similarity.New(idx, ord, similarity.Config{})
}

func newEngine(t testing.TB, rel *relation.Relation, cfg Config) *Engine {
	t.Helper()
	ord, est := pipeline(t, rel)
	return New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, cfg)
}

func TestAnswerImpreciseQuery(t *testing.T) {
	rel := testDB(3000, 1)
	e := newEngine(t, rel, Config{Tsim: 0.5, K: 100})
	q := query.New(rel.Schema()).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000))
	res, err := e.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("no answers")
	}
	if len(res.Answers) > 100 {
		t.Errorf("top-k overflow: %d", len(res.Answers))
	}
	// The best answer is a Camry priced near 10000.
	top := res.Answers[0]
	if top.Tuple[1].Str != "Camry" {
		t.Errorf("top answer is %s, want Camry", top.Tuple.Render(rel.Schema()))
	}
	if p := top.Tuple[4].Num; p < 8500 || p > 11500 {
		t.Errorf("top answer price %v not near 10000", p)
	}
	// Ranked descending.
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Sim < res.Answers[i].Sim {
			t.Errorf("answers not ranked at %d", i)
		}
	}
	// The engine should surface non-Camry sedans (e.g. Accords) — the
	// paper's motivating behaviour.
	foundOther := false
	for _, a := range res.Answers {
		if a.Tuple[1].Str != "Camry" {
			foundOther = true
		}
		if a.Sim < 0 || a.Sim > 1 {
			t.Errorf("Sim out of range: %v", a.Sim)
		}
	}
	if !foundOther {
		t.Errorf("relaxation never escaped the Camry binding")
	}
	if res.Work.QueriesIssued == 0 || res.Work.TuplesExtracted == 0 {
		t.Errorf("work stats empty: %+v", res.Work)
	}
}

func TestBaseQueryGeneralization(t *testing.T) {
	rel := testDB(2000, 2)
	e := newEngine(t, rel, Config{Tsim: 0.4, K: 5})
	// No tuple has this exact price: the precise query is empty and must be
	// generalized along the relaxation order.
	q := query.New(rel.Schema()).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10001.5))
	res, err := e.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Base) == 0 {
		t.Fatalf("generalization produced no base set")
	}
	if res.Precise.String() == q.ToPrecise().String() {
		t.Errorf("precise query was not generalized: %s", res.Precise)
	}
	if len(res.Answers) == 0 {
		t.Errorf("no answers after generalization")
	}
}

func TestUnconstrainedFallback(t *testing.T) {
	rel := testDB(500, 3)
	e := newEngine(t, rel, Config{Tsim: 0.1, K: 3})
	// Single bound attribute with an unseen value: generalizing drops the
	// only predicate, requiring the unconstrained fallback.
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("DeLorean"))
	res, err := e.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Base) == 0 || len(res.Precise.Preds) != 0 {
		t.Errorf("unconstrained fallback not used: base=%d precise=%s", len(res.Base), res.Precise)
	}
}

func TestEmptySourceFails(t *testing.T) {
	rel := relation.New(carSchema())
	rel.Append(relation.Tuple{relation.Cat("Toyota"), relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(2000), relation.Numv(10000)})
	ord, est := pipeline(t, rel)
	empty := relation.New(carSchema())
	e := New(webdb.NewLocal(empty), est, &Guided{Ord: ord}, Config{})
	q := query.New(carSchema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	if _, err := e.Answer(q); err == nil {
		t.Errorf("empty source produced answers")
	}
}

func TestTargetRelevantStopsEarly(t *testing.T) {
	rel := testDB(3000, 4)
	full := newEngine(t, rel, Config{Tsim: 0.5, K: 50})
	early := newEngine(t, rel, Config{Tsim: 0.5, K: 50, TargetRelevant: 5})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Civic"))
	rFull, err := full.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	rEarly, err := early.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rEarly.Work.TuplesExtracted >= rFull.Work.TuplesExtracted {
		t.Errorf("TargetRelevant did not reduce work: %d vs %d",
			rEarly.Work.TuplesExtracted, rFull.Work.TuplesExtracted)
	}
	if rEarly.Work.TuplesQualified < 5 {
		t.Errorf("stopped before reaching target: %d", rEarly.Work.TuplesQualified)
	}
}

func TestTsimGates(t *testing.T) {
	rel := testDB(2000, 5)
	strict := newEngine(t, rel, Config{Tsim: 0.95, K: 100})
	loose := newEngine(t, rel, Config{Tsim: 0.3, K: 100})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	rs, err := strict.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Work.TuplesQualified >= rl.Work.TuplesQualified {
		t.Errorf("higher threshold qualified more tuples: %d vs %d",
			rs.Work.TuplesQualified, rl.Work.TuplesQualified)
	}
}

func TestSourceFailureTolerance(t *testing.T) {
	rel := testDB(1500, 6)
	ord, est := pipeline(t, rel)
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Accord"))

	flaky := webdb.NewChaos(webdb.NewLocal(rel), webdb.ChaosConfig{FailEvery: 3})
	e := New(flaky, est, &Guided{Ord: ord}, Config{})
	if _, err := e.Answer(q); err == nil {
		t.Errorf("intolerant engine ignored source failures")
	}

	flaky2 := webdb.NewChaos(webdb.NewLocal(rel), webdb.ChaosConfig{FailEvery: 3})
	tol := New(flaky2, est, &Guided{Ord: ord}, Config{MaxSourceFailures: 1000})
	res, err := tol.Answer(q)
	if err != nil {
		t.Fatalf("tolerant engine failed: %v", err)
	}
	if len(res.Answers) == 0 || res.Work.SourceFailures == 0 {
		t.Errorf("tolerant engine: %d answers, %d failures", len(res.Answers), res.Work.SourceFailures)
	}
}

func TestGuidedVsRandomScheduleShape(t *testing.T) {
	rel := testDB(1000, 7)
	ord, _ := pipeline(t, rel)
	bound := relation.NewAttrSet(0, 1, 2, 3, 4)
	g := (&Guided{Ord: ord}).Schedule(bound)
	r := (&Random{Rng: rand.New(rand.NewSource(1))}).Schedule(bound)
	if len(g) != len(r) {
		t.Errorf("schedules differ in length: %d vs %d", len(g), len(r))
	}
	// Guided goes shallow → deep; Random is a free permutation.
	for i := 1; i < len(g); i++ {
		if g[i].Size() < g[i-1].Size() {
			t.Errorf("guided schedule depth not monotone")
			break
		}
	}
	seen := map[relation.AttrSet]bool{}
	for _, s := range r {
		if seen[s] {
			t.Errorf("random schedule repeats %v", s.Members())
		}
		seen[s] = true
	}
	// Guided relaxes the least-important attribute first.
	if g[0].Members()[0] != ord.Relax[0] {
		t.Errorf("guided first relaxation = %v, want %v", g[0].Members(), ord.Relax[0])
	}
	// Never drop everything.
	for _, s := range append(g, r...) {
		if s == bound {
			t.Errorf("schedule drops all attributes")
		}
	}
}

func TestRandomScheduleDeterministicPerSeed(t *testing.T) {
	bound := relation.NewAttrSet(0, 1, 2, 3)
	a := (&Random{Rng: rand.New(rand.NewSource(9))}).Schedule(bound)
	b := (&Random{Rng: rand.New(rand.NewSource(9))}).Schedule(bound)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules")
		}
	}
}

func TestAnswererNames(t *testing.T) {
	rel := testDB(500, 10)
	ord, est := pipeline(t, rel)
	g := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{})
	r := New(webdb.NewLocal(rel), est, &Random{Rng: rand.New(rand.NewSource(2))}, Config{})
	if g.Name() != "AIMQ-GuidedRelax" || r.Name() != "AIMQ-RandomRelax" {
		t.Errorf("names = %q, %q", g.Name(), r.Name())
	}
}

func TestDuplicateAnswersCollapse(t *testing.T) {
	// Two identical tuples in the DB: the answer list must not contain the
	// same tuple content twice.
	rel := testDB(800, 11)
	tp := rel.Tuple(0).Clone()
	rel.Append(tp)
	e := newEngine(t, rel, Config{Tsim: 0.3, K: 200})
	q := query.FromTuple(rel.Schema(), tp)
	// Make it imprecise on Model so relaxation kicks in.
	for i := range q.Preds {
		q.Preds[i].Op = query.OpLike
	}
	res, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range res.Answers {
		k := ""
		for i, v := range a.Tuple {
			k += v.Key(rel.Schema().Type(i)) + "|"
		}
		if seen[k] {
			t.Fatalf("duplicate answer tuple %v", a.Tuple.Render(rel.Schema()))
		}
		seen[k] = true
	}
}

func TestErrInjectedSurfaces(t *testing.T) {
	rel := testDB(500, 12)
	ord, est := pipeline(t, rel)
	flaky := webdb.NewChaos(webdb.NewLocal(rel), webdb.ChaosConfig{FailEvery: 1})
	e := New(flaky, est, &Guided{Ord: ord}, Config{})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	_, err := e.Answer(q)
	if !errors.Is(err, webdb.ErrInjected) {
		t.Errorf("error chain lost: %v", err)
	}
}

func TestChainGeneralization(t *testing.T) {
	rel := testDB(1000, 20)
	ord, est := pipeline(t, rel)
	g := &Guided{Ord: ord}
	bound := relation.NewAttrSet(0, 1, 2, 3, 4)
	chain := g.Chain(bound)
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	for i := 1; i < len(chain); i++ {
		if !chain[i].Contains(chain[i-1]) || chain[i].Size() != chain[i-1].Size()+1 {
			t.Errorf("chain not progressive at %d: %v -> %v", i, chain[i-1].Members(), chain[i].Members())
		}
	}
	if chain[0].Members()[0] != ord.Relax[0] {
		t.Errorf("chain starts with %v, want least important %d", chain[0].Members(), ord.Relax[0])
	}
	// Single-attribute bound: no chain (never drop everything).
	if got := g.Chain(relation.NewAttrSet(1)); len(got) != 0 {
		t.Errorf("1-attr chain = %v", got)
	}
	r := &Random{Rng: rand.New(rand.NewSource(5))}
	rc := r.Chain(bound)
	if len(rc) != 4 {
		t.Errorf("random chain length = %d", len(rc))
	}
	_ = est
}

func TestMaxQueriesPerBase(t *testing.T) {
	rel := testDB(2000, 21)
	capped := newEngine(t, rel, Config{Tsim: 0.5, K: 10, BaseLimit: 1, MaxQueriesPerBase: 3})
	free := newEngine(t, rel, Config{Tsim: 0.5, K: 10, BaseLimit: 1})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	rc, err := capped.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := free.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// Capped: 1 base query + at most 3 relaxation queries.
	if rc.Work.QueriesIssued > 4 {
		t.Errorf("cap ignored: %d queries", rc.Work.QueriesIssued)
	}
	if rf.Work.QueriesIssued <= rc.Work.QueriesIssued {
		t.Errorf("uncapped issued %d <= capped %d", rf.Work.QueriesIssued, rc.Work.QueriesIssued)
	}
}

func TestNumericWideningGeneralization(t *testing.T) {
	rel := testDB(2000, 22)
	e := newEngine(t, rel, Config{Tsim: 0.4, K: 10})
	// No tuple has this exact price, but Camrys exist nearby: the base
	// query must widen Price instead of dropping Model.
	q := query.New(rel.Schema()).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10001.5))
	res, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Base) == 0 {
		t.Fatalf("no base set")
	}
	for _, b := range res.Base {
		if b[1].Str != "Camry" {
			t.Fatalf("widened base query lost the Model binding: %s", b.Render(rel.Schema()))
		}
	}
	// The generalized query is a range on Price, still binding Model.
	if !strings.Contains(res.Precise.String(), "between") || !strings.Contains(res.Precise.String(), "Camry") {
		t.Errorf("generalized query = %s", res.Precise)
	}
	// Top answers are Camrys near the price.
	if res.Answers[0].Tuple[1].Str != "Camry" {
		t.Errorf("top answer = %s", res.Answers[0].Tuple.Render(rel.Schema()))
	}
}

func TestWidenNumericLikes(t *testing.T) {
	rel := testDB(100, 23)
	sc := rel.Schema()
	q := query.New(sc).
		Where("Model", query.OpLike, relation.Cat("Camry")).
		Where("Price", query.OpLike, relation.Numv(10000)).
		Where("Year", query.OpEq, relation.Numv(2000)) // precise: must NOT widen
	wide, any := widenNumericLikes(q, q.ToPrecise(), 0.1)
	if !any {
		t.Fatalf("widening reported nothing to widen")
	}
	price, ok := wide.Binding(sc.MustIndex("Price"))
	if !ok || price.Op != query.OpRange || price.Value.Num != 9000 || price.Hi.Num != 11000 {
		t.Errorf("price widened to %+v", price)
	}
	year, _ := wide.Binding(sc.MustIndex("Year"))
	if year.Op != query.OpEq {
		t.Errorf("precise Year predicate was widened: %+v", year)
	}
	model, _ := wide.Binding(sc.MustIndex("Model"))
	if model.Op != query.OpEq || model.Value.Str != "Camry" {
		t.Errorf("categorical predicate mangled: %+v", model)
	}
	// No numeric likes: untouched.
	q2 := query.New(sc).Where("Model", query.OpLike, relation.Cat("Camry"))
	if _, any := widenNumericLikes(q2, q2.ToPrecise(), 0.1); any {
		t.Errorf("widening invented numeric constraints")
	}
	// Zero value gets an absolute delta instead of a zero-width range.
	q3 := query.New(sc).Where("Price", query.OpLike, relation.Numv(0))
	w3, _ := widenNumericLikes(q3, q3.ToPrecise(), 0.1)
	p3, _ := w3.Binding(sc.MustIndex("Price"))
	if p3.Hi.Num <= p3.Value.Num {
		t.Errorf("zero-value widening produced empty range: %+v", p3)
	}
}
