package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// slowSource delays every query, simulating a slow autonomous Web source so
// deadlines expire mid-relaxation.
type slowSource struct {
	src   webdb.Source
	delay time.Duration
}

func (s *slowSource) Schema() *relation.Schema { return s.src.Schema() }

func (s *slowSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	time.Sleep(s.delay)
	return s.src.QueryContext(ctx, q, limit)
}

// cancelAfterSource cancels a context after a fixed number of queries,
// simulating a client that disconnects partway through relaxation.
type cancelAfterSource struct {
	src    webdb.Source
	cancel context.CancelFunc
	after  int
	calls  int
}

func (c *cancelAfterSource) Schema() *relation.Schema { return c.src.Schema() }

func (c *cancelAfterSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return c.src.QueryContext(ctx, q, limit)
}

func TestAnswerContextAlreadyCancelled(t *testing.T) {
	rel := testDB(1000, 30)
	e := newEngine(t, rel, Config{Tsim: 0.5, K: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))
	res, err := e.AnswerContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatalf("cancelled AnswerContext returned nil Result")
	}
	if res.Work.TuplesExtracted != 0 {
		t.Errorf("already-cancelled context still extracted %d tuples", res.Work.TuplesExtracted)
	}
}

func TestAnswerContextDeadlineReturnsPartial(t *testing.T) {
	rel := testDB(3000, 31)
	ord, est := pipeline(t, rel)
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Camry"))

	// Uncancelled run establishes the full cost.
	full := New(webdb.NewLocal(rel), est, &Guided{Ord: ord}, Config{Tsim: 0.5, K: 50})
	rFull, err := full.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rFull.Work.QueriesIssued < 3 {
		t.Skipf("schedule too short to observe cancellation (%d queries)", rFull.Work.QueriesIssued)
	}

	// With ~2ms per source query, a deadline cuts relaxation after a few
	// queries; the engine must return what it has, not run to completion.
	slow := &slowSource{src: webdb.NewLocal(rel), delay: 2 * time.Millisecond}
	e := New(slow, est, &Guided{Ord: ord}, Config{Tsim: 0.5, K: 50})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.AnswerContext(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatalf("deadline run returned nil Result")
	}
	if res.Work.QueriesIssued >= rFull.Work.QueriesIssued {
		t.Errorf("deadline did not cut relaxation: %d queries vs full %d",
			res.Work.QueriesIssued, rFull.Work.QueriesIssued)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled answer took %v; not prompt", elapsed)
	}
}

func TestAnswerContextCancelMidflightKeepsBase(t *testing.T) {
	rel := testDB(2000, 32)
	ord, est := pipeline(t, rel)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel on the 2nd source query: the base set (query 1) is in hand, the
	// first relaxation is cut. Partial answers = the ranked base set.
	src := &cancelAfterSource{src: webdb.NewLocal(rel), cancel: cancel, after: 2}
	e := New(src, est, &Guided{Ord: ord}, Config{Tsim: 0.5, K: 50})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Accord"))
	res, err := e.AnswerContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Answers) == 0 {
		t.Fatalf("mid-flight cancellation lost the base-set answers: %+v", res)
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i-1].Sim < res.Answers[i].Sim {
			t.Errorf("partial answers not ranked at %d", i)
		}
	}
}

func TestAnswerContextBackgroundIsNil(t *testing.T) {
	rel := testDB(800, 33)
	e := newEngine(t, rel, Config{Tsim: 0.5, K: 5})
	q := query.New(rel.Schema()).Where("Model", query.OpLike, relation.Cat("Focus"))
	res, err := e.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatalf("AnswerContext with background ctx: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("no answers")
	}
}
