package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aimq/internal/core"
	"aimq/internal/query"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// epoch is a stretch of a car-hot-swap window in which one model served
// over one source state and the cache held only answers computed by that
// pair: it starts at the window start or at an observed promote (which
// flushes the cache) and ends at the next source drift.
type epoch struct {
	from, to    time.Duration
	fingerprint string
	variant     int
}

// checkTarget is a recompute job: the served answer and what it was
// computed on.
type checkTarget struct {
	rec   *record
	model *service.Model
	src   webdb.Source
	key   string // memo key: identical targets are recomputed once
}

// checkSample picks the seed-determined every-Nth request of a closed loop
// and pairs it with the stack's model and source.
func checkSample(st *stack, recs []*record, every int, seed int64) []checkTarget {
	var out []checkTarget
	off := int(uint64(seed) % uint64(every))
	for _, r := range recs {
		if r.idx%every == off && r.body != nil {
			out = append(out, checkTarget{rec: r, model: st.model, src: st.res, key: r.query})
		}
	}
	return out
}

// checkSampleEpochs is checkSample for car-hot-swap: only requests sent and
// answered inside one epoch are checked, against that epoch's model and
// source state (answers straddling a drift or a promote have no single pair
// to compare with).
func checkSampleEpochs(st *stack, recs []*record, every int, seed int64, epochs []epoch) ([]checkTarget, error) {
	var out []checkTarget
	off := int(uint64(seed) % uint64(every))
	for _, r := range recs {
		if r == nil || r.idx%every != off || r.body == nil {
			continue
		}
		for _, e := range epochs {
			if r.sent < e.from || r.done >= e.to {
				continue
			}
			m := st.modelByFingerprint(e.fingerprint)
			if m == nil {
				return nil, fmt.Errorf("served model %s was never learned by this stack", e.fingerprint)
			}
			out = append(out, checkTarget{
				rec: r, model: m, src: st.variants[e.variant],
				key: fmt.Sprintf("%s|%d|%s", e.fingerprint, e.variant, r.query),
			})
		}
	}
	return out, nil
}

// recompute answers every target directly with core.Engine.Answer and
// returns one line per served answer that differs. Targets run on conns
// goroutines.
func recompute(st *stack, targets []checkTarget) []string {
	cfg := st.w.engineConfig()
	type result struct {
		res *core.Result
		err error
	}
	memo := map[string]*result{}
	var jobs []checkTarget
	for _, t := range targets {
		if _, ok := memo[t.key]; !ok {
			memo[t.key] = &result{}
			jobs = append(jobs, t)
		}
	}
	var wg sync.WaitGroup
	ch := make(chan checkTarget)
	for i := 0; i < conns(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				r := memo[t.key]
				q, err := query.Parse(t.src.Schema(), t.rec.query)
				if err != nil {
					r.err = err
					continue
				}
				eng := core.New(t.src, t.model.Est, &core.Guided{Ord: t.model.Ord}, cfg)
				r.res, r.err = eng.AnswerContext(context.Background(), q)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	var bad []string
	for _, t := range targets {
		r := memo[t.key]
		if r.err != nil {
			bad = append(bad, fmt.Sprintf("request %s (%s): recompute failed: %v", t.rec.id(), t.rec.query, r.err))
			continue
		}
		if d := diffAnswers(t.src, r.res, t.rec.body.Answers); d != "" {
			bad = append(bad, fmt.Sprintf("request %s (%s): %s", t.rec.id(), t.rec.query, d))
		}
	}
	return bad
}

// diffAnswers compares a recomputed result with the served rows: the same
// answers, rendered values and Sim, in the same order.
func diffAnswers(src webdb.Source, res *core.Result, rows []answerRow) string {
	if len(res.Answers) != len(rows) {
		return fmt.Sprintf("served %d answers, recomputed %d", len(rows), len(res.Answers))
	}
	sc := src.Schema()
	for i, a := range res.Answers {
		if a.Sim != rows[i].Sim {
			return fmt.Sprintf("rank %d: served Sim %v, recomputed %v", i+1, rows[i].Sim, a.Sim)
		}
		for j, v := range a.Tuple {
			if got := v.Render(sc.Type(j)); got != rows[i].Values[j] {
				return fmt.Sprintf("rank %d attribute %s: served %q, recomputed %q", i+1, sc.Attr(j).Name, rows[i].Values[j], got)
			}
		}
	}
	return ""
}
