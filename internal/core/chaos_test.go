package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// TestChaosEndToEnd runs Algorithm 1 (GuidedRelax) against a real
// webdb.Server over HTTP, with the wire client wrapped in Chaos fault
// injection and the Resilient retry/breaker middleware, at increasing
// failure rates. It asserts the robustness contract the bench scenarios
// gate on:
//
//   - no panics, and at 0% no errors at all;
//   - at nonzero rates, every outcome is accounted for — a ranked partial
//     Result under FailDegrade, or an error classified as injected/breaker
//     (never an unexplained abort);
//   - total answers are monotone non-increasing as the failure rate grows;
//   - every returned Result is internally consistent (WorkStats vs the
//     per-step trace);
//   - at the highest rate the breaker's open → half-open → close cycle is
//     actually observed.
func TestChaosEndToEnd(t *testing.T) {
	rel := testDB(2000, 5)
	ord, est := pipeline(t, rel)
	srv := httptest.NewServer(webdb.NewServer(webdb.NewLocal(rel)))
	defer srv.Close()

	pool := chaosPool(rel, 6)
	rates := []float64{0, 0.10, 0.30}
	prevAnswers := -1
	for _, rate := range rates {
		client, err := webdb.NewClient(srv.URL, srv.Client())
		if err != nil {
			t.Fatalf("rate %g: NewClient: %v", rate, err)
		}
		ccfg := webdb.ChaosConfig{Seed: 99, FailProb: rate}
		if rate >= 0.3 {
			// Isolated faults are absorbed by retries; consecutive-failure
			// breakers trip on bursts. Give the top rate a deterministic
			// burst long enough to outlast the retry budget.
			ccfg.BurstEvery, ccfg.BurstLen = 40, 8
		}
		chaos := webdb.NewChaos(client, ccfg)
		res := webdb.NewResilient(chaos, webdb.ResilientConfig{
			Retry: webdb.RetryPolicy{
				MaxAttempts: 2,
				BaseDelay:   50 * time.Microsecond,
				MaxDelay:    500 * time.Microsecond,
			},
			Breaker: webdb.BreakerConfig{FailureThreshold: 3, OpenTimeout: 2 * time.Millisecond},
		})
		eng := New(res, est, &Guided{Ord: ord}, Config{
			Tsim:           0.5,
			K:              10,
			BaseLimit:      1,
			PerQueryLimit:  500,
			TargetRelevant: 20,
			OnFailure:      FailDegrade,
		})

		totalAnswers := 0
		for qi, q := range pool {
			rec := obs.NewRecorder("", q.String())
			result, err := eng.AnswerContext(obs.WithRecorder(context.Background(), rec), q)
			if err != nil {
				if rate == 0 {
					t.Fatalf("rate 0, query %d: unexpected error %v", qi, err)
				}
				// The only acceptable failure shape: the source was down
				// (injected fault or shedding breaker) for every base-set
				// generalization. Anything else is a hard abort.
				if !errors.Is(err, webdb.ErrInjected) && !errors.Is(err, webdb.ErrBreakerOpen) {
					t.Fatalf("rate %g, query %d: unclassified hard abort %v", rate, qi, err)
				}
				if errors.Is(err, webdb.ErrBreakerOpen) {
					// A real client backs off while the breaker sheds; the
					// pause lets the next query's probe half-open it.
					time.Sleep(5 * time.Millisecond)
				}
				continue
			}
			if result == nil {
				t.Fatalf("rate %g, query %d: nil result with nil error", rate, qi)
			}
			totalAnswers += len(result.Answers)
			checkConsistency(t, rate, qi, result, rec.Finish().Steps)
		}
		if prevAnswers >= 0 && totalAnswers > prevAnswers {
			t.Errorf("answers grew with the failure rate: %d at rate %g > %d at the previous rate",
				totalAnswers, rate, prevAnswers)
		}
		prevAnswers = totalAnswers

		st := res.Stats()
		t.Logf("rate %g: answers %d, stats %+v", rate, totalAnswers, st)
		if rate == 0 {
			if st.Failures != 0 || st.Retries != 0 || st.Opens != 0 {
				t.Errorf("rate 0: resilience layer saw faults: %+v", st)
			}
		}
		if rate == 0.30 {
			if st.Opens == 0 {
				t.Fatalf("rate 0.3: burst never tripped the breaker: %+v", st)
			}
			if st.Retries == 0 {
				t.Errorf("rate 0.3: no retries recorded")
			}
			// Recovery: after the open timeout, half-open probes must close
			// the breaker again once the burst has drained. A failed probe
			// reopens it (that's the cycle working), so keep knocking.
			for i := 0; i < 20 && res.Stats().Closes == 0; i++ {
				time.Sleep(5 * time.Millisecond)
				_, _ = eng.Answer(pool[i%len(pool)])
			}
			st = res.Stats()
			if st.HalfOpens == 0 || st.Closes == 0 {
				t.Errorf("rate 0.3: breaker cycle not observed: opens %d, half-opens %d, closes %d",
					st.Opens, st.HalfOpens, st.Closes)
			}
			if st.State != webdb.BreakerClosed {
				t.Errorf("rate 0.3: breaker %v after recovery, want closed", st.State)
			}
		}
	}
}

// chaosPool builds n fully-bound imprecise queries from planted tuples.
func chaosPool(rel *relation.Relation, n int) []*query.Query {
	var out []*query.Query
	for i := 0; i < n; i++ {
		t := rel.Tuple((i * 317) % rel.Size())
		q := query.FromTuple(rel.Schema(), t)
		for j := range q.Preds {
			q.Preds[j].Op = query.OpLike
		}
		out = append(out, q)
	}
	return out
}

// checkConsistency cross-checks a Result's WorkStats against the recorder's
// per-step trace: the aggregate numbers must be derivable from (or bounded
// by) the steps, or the stats are lying about the work done.
func checkConsistency(t *testing.T, rate float64, qi int, res *Result, steps []obs.RelaxStep) {
	t.Helper()
	extracted, failed, shed := 0, 0, 0
	for _, step := range steps {
		extracted += step.Extracted
		if step.Failed {
			failed++
		}
		if step.Shed {
			shed++
		}
	}
	// The trace covers relaxation only; base-set probes add more queries and
	// tuples, so the trace sums are lower bounds.
	if res.Work.QueriesIssued < len(steps) {
		t.Errorf("rate %g, query %d: %d queries issued < %d traced steps", rate, qi, res.Work.QueriesIssued, len(steps))
	}
	if res.Work.TuplesExtracted < extracted {
		t.Errorf("rate %g, query %d: work extracted %d < trace sum %d", rate, qi, res.Work.TuplesExtracted, extracted)
	}
	if res.Work.SourceFailures < failed {
		t.Errorf("rate %g, query %d: work failures %d < traced failures %d", rate, qi, res.Work.SourceFailures, failed)
	}
	if shed > failed {
		t.Errorf("rate %g, query %d: %d shed steps > %d failed steps", rate, qi, shed, failed)
	}
	if rate == 0 && failed > 0 {
		t.Errorf("rate 0, query %d: %d failed steps", qi, failed)
	}
	if len(res.Answers) > 10 {
		t.Errorf("rate %g, query %d: top-k overflow: %d answers", rate, qi, len(res.Answers))
	}
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Sim > res.Answers[i-1].Sim {
			t.Errorf("rate %g, query %d: answers not ranked by Sim", rate, qi)
			break
		}
	}
}
