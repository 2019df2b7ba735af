package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// TestAesTableChainsCollisions forces tuples that differ only where the key
// is subtle (−0 vs +0, NULL vs "" vs "\x00null") into one hash chain: each
// is its own answer, an equal tuple (another NaN payload counts as equal)
// finds its answer again and raises its BaseSim, and a lower BaseSim leaves
// it alone.
func TestAesTableChainsCollisions(t *testing.T) {
	tuple := func(mk relation.Value, price float64) relation.Tuple {
		return relation.Tuple{mk, relation.Cat("Camry"), relation.Cat("sedan"), relation.Numv(2001), relation.Numv(price)}
	}
	distinct := []relation.Tuple{
		tuple(relation.Cat("Toyota"), 0),
		tuple(relation.Cat("Toyota"), math.Copysign(0, -1)),
		tuple(relation.Cat("Toyota"), math.NaN()),
		tuple(relation.NullValue, 0),
		tuple(relation.Cat(""), 0),
		tuple(relation.Cat("\x00null"), 0),
	}
	tb := newAesTable(carSchema())
	defer tb.release()
	const h = 42 // every tuple in one chain
	for i, tp := range distinct {
		if got, isNew := tb.add(h, tp, 0.5); got != i || !isNew {
			t.Fatalf("add %v = %d, new %v; want %d, new", tp, got, isNew, i)
		}
	}
	for i, tp := range distinct {
		if got, isNew := tb.add(h, tp.Clone(), 0.4); got != i || isNew {
			t.Errorf("re-add %v = %d, new %v; want %d, not new", tp, got, isNew, i)
		}
	}
	otherNaN := tuple(relation.Cat("Toyota"), math.Float64frombits(0x7ff8000000000abc))
	if got, isNew := tb.add(h, otherNaN, 0.9); got != 2 || isNew {
		t.Errorf("NaN payload %x = %d, new %v; want 2, not new", math.Float64bits(otherNaN[4].Num), got, isNew)
	}
	for i, e := range tb.ents {
		want := 0.5
		if i == 2 {
			want = 0.9
		}
		if e.BaseSim != want || e.Seq != i {
			t.Errorf("answer %d: BaseSim %v Seq %d, want %v and %d", i, e.BaseSim, e.Seq, want, i)
		}
	}
	if len(tb.index) != 1 {
		t.Errorf("index has %d hashes, want 1", len(tb.index))
	}
}

// failingSource answers from Src but fails every query that leaves attr
// unbound, so a relaxation schedule fails at its first step dropping attr,
// the same way on every run.
type failingSource struct {
	webdb.Source
	attr int
}

var errDropped = errors.New("source refuses the query")

func (f failingSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	if !q.BoundAttrs().Has(f.attr) {
		return nil, errDropped
	}
	return f.Source.QueryContext(ctx, q, limit)
}

// TestConcurrentAnswersMatchSerial: answer tables are pooled across
// requests, so concurrent runs must not see each other's entries or
// found-by logs. 8 goroutines answer a mixed set on shared engines — K = 1,
// 10 and 1<<30, traced and untraced, and a run that aborts on a source
// failure mid-relaxation — and every result must equal its serial run:
// answer bits, work, step records and each answer's found-by steps.
func TestConcurrentAnswersMatchSerial(t *testing.T) {
	rel := oracleDB(400, 2)
	ord, est := oraclePipeline(t, rel)
	cfg := Config{Tsim: 0.4, BaseLimit: 4, PerQueryLimit: 60}
	type run struct {
		eng    *Engine
		q      *query.Query
		traced bool
	}
	var runs []run
	for _, k := range []int{1, 10, 1 << 30} {
		cfg.K = k
		eng := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, cfg)
		for _, q := range oracleQueries(rel, 4, 5) {
			runs = append(runs, run{eng, q, false}, run{eng, q, true})
		}
	}
	cfg.K = 10
	makeAttr := rel.Schema().MustIndex("Make")
	abort := New(failingSource{webdb.NewLocal(rel), makeAttr}, est, &Guided{Ord: ord}, cfg)
	toyota := query.New(rel.Schema()).Where("Make", query.OpLike, relation.Cat("Toyota"))
	runs = append(runs, run{abort, toyota, false}, run{abort, toyota, true})

	type outcome struct {
		res   *Result
		tr    obs.Trace
		steps []obs.RelaxStep
		err   error
	}
	answer := func(r run) outcome {
		ctx := context.Background()
		var rec *obs.Recorder
		if r.traced {
			rec = obs.NewRecorder("pool", r.q.String())
			ctx = obs.WithRecorder(ctx, rec)
		}
		res, err := r.eng.AnswerContext(ctx, r.q)
		tr := rec.Finish()
		return outcome{res, tr, untimedSteps(&tr), err}
	}
	want := make([]outcome, len(runs))
	for i, r := range runs {
		want[i] = answer(r)
	}
	if last := want[len(want)-1]; !errors.Is(last.err, errDropped) || last.res != nil || len(last.steps) < 2 {
		t.Fatalf("abort run: result %v, error %v, %d steps; want a mid-relaxation abort", last.res, last.err, len(last.steps))
	}

	// same reports how got differs from want, or "" when it does not.
	same := func(got, want outcome) string {
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) || (got.res == nil) != (want.res == nil) {
			return fmt.Sprintf("error %v (result %v), serial %v (result %v)", got.err, got.res != nil, want.err, want.res != nil)
		}
		if !reflect.DeepEqual(got.steps, want.steps) {
			return "step records differ"
		}
		if len(got.tr.Answers) != len(want.tr.Answers) {
			return fmt.Sprintf("%d answer explains, serial %d", len(got.tr.Answers), len(want.tr.Answers))
		}
		for i, a := range got.tr.Answers {
			if w := want.tr.Answers[i]; a.FromBase != w.FromBase || !reflect.DeepEqual(a.Steps, w.Steps) {
				return fmt.Sprintf("answer %d found by %v, serial %v", i, a.Steps, w.Steps)
			}
		}
		if got.res == nil {
			return ""
		}
		if got.res.Work != want.res.Work {
			return fmt.Sprintf("work %+v, serial %+v", got.res.Work, want.res.Work)
		}
		if len(got.res.Answers) != len(want.res.Answers) {
			return fmt.Sprintf("%d answers, serial %d", len(got.res.Answers), len(want.res.Answers))
		}
		for i, a := range got.res.Answers {
			w := want.res.Answers[i]
			if !reflect.DeepEqual(a.Tuple, w.Tuple) || math.Float64bits(a.Sim) != math.Float64bits(w.Sim) ||
				math.Float64bits(a.BaseSim) != math.Float64bits(w.BaseSim) || a.Seq != w.Seq {
				return fmt.Sprintf("answer %d = %+v, serial %+v", i, a, w)
			}
		}
		return ""
	}

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at its own offset, so different runs
			// overlap and tables of every size pass between them.
			for j := range runs {
				i := (j + g*len(runs)/workers) % len(runs)
				if diff := same(answer(runs[i]), want[i]); diff != "" {
					t.Errorf("goroutine %d, run %d (%q, k=%d, traced=%v): %s", g, i, runs[i].q, runs[i].eng.Cfg.K, runs[i].traced, diff)
				}
			}
		}(g)
	}
	wg.Wait()
}
