package aimq

import (
	"context"
	"fmt"
	"strings"

	"aimq/internal/core"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
)

// Answers is a ranked result set for one imprecise query.
type Answers struct {
	// Columns are the attribute names, in schema order.
	Columns []string
	// Rows are the answers, best first.
	Rows []Row
	// BaseQuery is the precise query the answers were grown from (after
	// any generalization).
	BaseQuery string
	// Work summarizes the source-side cost of answering.
	Work Work
	// Trace lists the relaxation steps taken, when the session was opened
	// WithTrace.
	Trace []TraceStep
}

// TraceStep is one recorded relaxation step.
type TraceStep struct {
	Query     string
	Extracted int
	Qualified int
	Failed    bool
}

// Row is one answer tuple with its similarity to the query.
type Row struct {
	// Values renders each attribute in schema order ("NULL" for missing).
	Values []string
	// Similarity is Sim(Q, t) ∈ [0, 1].
	Similarity float64
}

// Work summarizes query-answering cost.
type Work struct {
	QueriesIssued   int
	TuplesExtracted int
	TuplesQualified int
	// StepsPruned is how many relaxation queries the engine proved
	// pointless (Sim upper bound below Tsim) and skipped without issuing.
	StepsPruned int
}

// Ask answers an imprecise query written in the CLI syntax, e.g.
//
//	Model like Camry, Price like 10000
//	Make = Ford, Mileage between 40000 and 60000
//
// Attribute names resolve against the source schema; "like" marks imprecise
// constraints (on both categorical and numeric attributes).
func (db *DB) Ask(text string) (*Answers, error) {
	if !db.Learned() {
		return nil, ErrNotLearned
	}
	q, err := query.Parse(db.Schema(), text)
	if err != nil {
		return nil, err
	}
	return db.AskQuery(q)
}

// AskQuery answers a structured query.
func (db *DB) AskQuery(q *query.Query) (*Answers, error) {
	if !db.Learned() {
		return nil, ErrNotLearned
	}
	if len(q.Preds) == 0 {
		return nil, fmt.Errorf("aimq: empty query")
	}
	db.log.Record(q)
	// WithTrace sessions record the run, and Answers.Trace is read back
	// from the recorder's relaxation steps.
	ctx := context.Background()
	var rec *obs.Recorder
	if db.cfg.trace {
		rec = obs.NewRecorder("", q.String())
		ctx = obs.WithRecorder(ctx, rec)
	}
	res, err := db.engine().AnswerContext(ctx, q)
	if err != nil {
		return nil, err
	}
	out := db.convert(res)
	for _, step := range rec.Finish().RelaxSteps() {
		out.Trace = append(out.Trace, TraceStep{
			Query:     step.Query,
			Extracted: step.Extracted,
			Qualified: step.Qualified,
			Failed:    step.Failed,
		})
	}
	return out, nil
}

// AskTuple finds the tuples most similar to a reference tuple — "more like
// this" over the whole relation.
func (db *DB) AskTuple(t relation.Tuple) (*Answers, error) {
	if !db.Learned() {
		return nil, ErrNotLearned
	}
	q := query.FromTuple(db.Schema(), t)
	for i := range q.Preds {
		q.Preds[i].Op = query.OpLike
	}
	return db.AskQuery(q)
}

func (db *DB) convert(res *core.Result) *Answers {
	sc := db.Schema()
	out := &Answers{
		Columns:   sc.Names(),
		BaseQuery: res.Precise.String(),
		Work: Work{
			QueriesIssued:   res.Work.QueriesIssued,
			TuplesExtracted: res.Work.TuplesExtracted,
			TuplesQualified: res.Work.TuplesQualified,
			StepsPruned:     res.Work.StepsPruned,
		},
	}
	for _, a := range res.Answers {
		row := Row{Similarity: a.Sim, Values: make([]string, len(a.Tuple))}
		for i, v := range a.Tuple {
			row.Values[i] = v.Render(sc.Type(i))
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// ExplainTrace renders the recorded relaxation steps, most productive
// first; zero-yield steps are summarized rather than listed.
func (a *Answers) ExplainTrace() string {
	if len(a.Trace) == 0 {
		return "no trace recorded (open the session with WithTrace(true))\n"
	}
	var b strings.Builder
	quiet, failed := 0, 0
	for _, s := range a.Trace {
		switch {
		case s.Failed:
			failed++
		case s.Qualified == 0:
			quiet++
		default:
			fmt.Fprintf(&b, "  %-60s extracted %4d, qualified %3d\n", s.Query, s.Extracted, s.Qualified)
		}
	}
	fmt.Fprintf(&b, "  (%d further steps yielded nothing new; %d failed)\n", quiet, failed)
	return b.String()
}

// String renders the answers as an aligned text table.
func (a *Answers) String() string {
	var b strings.Builder
	widths := make([]int, len(a.Columns))
	for i, c := range a.Columns {
		widths[i] = len(c)
	}
	for _, r := range a.Rows {
		for i, v := range r.Values {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	fmt.Fprintf(&b, "%-6s", "sim")
	for i, c := range a.Columns {
		fmt.Fprintf(&b, " %-*s", widths[i], c)
	}
	b.WriteString("\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%.3f ", r.Similarity)
		for i, v := range r.Values {
			fmt.Fprintf(&b, " %-*s", widths[i], v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
