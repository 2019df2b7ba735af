package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"time"

	"aimq/internal/core"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/webdb"
)

// Target answers one recorded query during replay.
type Target interface {
	// Answer runs the query and returns the ranked answer rows, rendered
	// exactly as the serving path renders them.
	Answer(q string, k int, tsim float64) ([]Row, error)
}

// HTTPTarget replays against a live /answer endpoint.
type HTTPTarget struct {
	// Base is the service root, e.g. "http://localhost:8080".
	Base string
	// Client defaults to a 30s-timeout client.
	Client *http.Client
}

// Answer implements Target over GET /answer.
func (t *HTTPTarget) Answer(q string, k int, tsim float64) ([]Row, error) {
	client := t.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	u := fmt.Sprintf("%s/answer?q=%s&k=%d&tsim=%g",
		t.Base, url.QueryEscape(q), k, tsim)
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Answers []Row  `json:"answers"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("audit: decode /answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit: /answer: %d %s", resp.StatusCode, body.Error)
	}
	return body.Answers, nil
}

// EngineTarget replays in-process: a fresh engine per query over a source
// and restored model, bypassing HTTP, cache and singleflight. Engine
// carries the header's recorded defaults so the replayed computation runs
// under the configuration the baseline was recorded under.
type EngineTarget struct {
	Src     webdb.Source
	Est     *similarity.Estimator
	Relaxer core.Relaxer
	Engine  core.Config
	// Timeout bounds each replayed computation (default 30s).
	Timeout time.Duration
}

// CoreConfig converts the header's engine block back to a core.Config.
func (ec EngineConfig) CoreConfig() core.Config {
	c := core.Config{
		K:                 ec.K,
		Tsim:              ec.Tsim,
		BaseLimit:         ec.BaseLimit,
		PerQueryLimit:     ec.PerQueryLimit,
		TargetRelevant:    ec.TargetRelevant,
		MaxQueriesPerBase: ec.MaxQueriesPerBase,
		DisablePruning:    ec.DisablePruning,
		KeyPruneMaxError:  ec.KeyPruneMaxError,
	}
	if ec.FailDegrade {
		c.OnFailure = core.FailDegrade
	}
	return c
}

// EngineConfigOf records the replay-relevant fields of c for a log header;
// CoreConfig is its inverse.
func EngineConfigOf(c core.Config) EngineConfig {
	return EngineConfig{
		K:                 c.K,
		Tsim:              c.Tsim,
		BaseLimit:         c.BaseLimit,
		PerQueryLimit:     c.PerQueryLimit,
		TargetRelevant:    c.TargetRelevant,
		MaxQueriesPerBase: c.MaxQueriesPerBase,
		DisablePruning:    c.DisablePruning,
		KeyPruneMaxError:  c.KeyPruneMaxError,
		FailDegrade:       c.OnFailure == core.FailDegrade,
	}
}

// Answer implements Target.
func (t *EngineTarget) Answer(qs string, k int, tsim float64) ([]Row, error) {
	sc := t.Src.Schema()
	q, err := query.Parse(sc, qs)
	if err != nil {
		return nil, fmt.Errorf("audit: parse %q: %w", qs, err)
	}
	cfg := t.Engine
	cfg.K = k
	cfg.Tsim = tsim
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := core.New(t.Src, t.Est, t.Relaxer, cfg).AnswerContext(ctx, q)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(res.Answers))
	for _, a := range res.Answers {
		r := Row{Sim: a.Sim, Values: renderTuple(a.Tuple, sc)}
		rows = append(rows, r)
	}
	return rows, nil
}

func renderTuple(tup relation.Tuple, sc *relation.Schema) []string {
	out := make([]string, len(tup))
	for i, v := range tup {
		out[i] = v.Render(sc.Type(i))
	}
	return out
}

// QueryDiff is the replay outcome for one recorded event.
type QueryDiff struct {
	Query       string  `json:"query"`
	K           int     `json:"k"`
	Tsim        float64 `json:"tsim"`
	Recorded    int     `json:"recorded"`
	Replayed    int     `json:"replayed"`
	Identical   bool    `json:"identical"`
	RowsChanged int     `json:"rows_changed"`
	// SimShiftMax is the largest |recorded − replayed| Sim over positionally
	// matched rows.
	SimShiftMax float64 `json:"sim_shift_max,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// Report aggregates a replay run.
type Report struct {
	Events    int `json:"events"`
	Replayed  int `json:"replayed"`
	Identical int `json:"identical"`
	Changed   int `json:"changed"`
	Errors    int `json:"errors"`
	// ModelMatch is false when the target's model fingerprint differs from
	// the log header's (set by the caller); diffs then measure a model
	// change, not a regression.
	ModelMatch bool `json:"model_match"`

	ZeroAnswerRateRecorded float64 `json:"zero_answer_rate_recorded"`
	ZeroAnswerRateReplayed float64 `json:"zero_answer_rate_replayed"`
	AnswersPerQueryRec     float64 `json:"answers_per_query_recorded"`
	AnswersPerQueryRep     float64 `json:"answers_per_query_replayed"`
	SimShiftMax            float64 `json:"sim_shift_max"`
	SimShiftMean           float64 `json:"sim_shift_mean"`

	// Diffs holds the non-identical (or errored) queries, worst first.
	Diffs []QueryDiff `json:"diffs,omitempty"`
}

// simEps tolerates float formatting wobble when comparing Sim scores; on
// an unchanged model replayed sims are bit-identical, so this only matters
// for cross-model comparisons.
const simEps = 1e-9

// Replay re-answers every recorded event against the target and diffs the
// answer sets. Events are replayed sequentially in recorded order.
func Replay(events []Event, target Target) *Report {
	rep := &Report{Events: len(events)}
	var zeroRec, zeroRep, ansRec, ansRep int
	var shiftSum float64
	var shiftN int
	for _, e := range events {
		d := QueryDiff{Query: e.Query, K: e.K, Tsim: e.Tsim, Recorded: len(e.Rows)}
		rows, err := target.Answer(e.Query, e.K, e.Tsim)
		if err != nil {
			d.Err = err.Error()
			rep.Errors++
			rep.Diffs = append(rep.Diffs, d)
			continue
		}
		rep.Replayed++
		d.Replayed = len(rows)
		if len(e.Rows) == 0 {
			zeroRec++
		}
		if len(rows) == 0 {
			zeroRep++
		}
		ansRec += len(e.Rows)
		ansRep += len(rows)

		d.Identical = true
		n := len(e.Rows)
		if len(rows) != n {
			d.Identical = false
			if len(rows) < n {
				n = len(rows)
			}
			d.RowsChanged += abs(len(rows) - len(e.Rows))
		}
		for i := 0; i < n; i++ {
			shift := math.Abs(e.Rows[i].Sim - rows[i].Sim)
			shiftSum += shift
			shiftN++
			if shift > d.SimShiftMax {
				d.SimShiftMax = shift
			}
			if shift > simEps || !equalValues(e.Rows[i].Values, rows[i].Values) {
				d.Identical = false
				d.RowsChanged++
			}
		}
		if d.SimShiftMax > rep.SimShiftMax {
			rep.SimShiftMax = d.SimShiftMax
		}
		if d.Identical {
			rep.Identical++
		} else {
			rep.Changed++
			rep.Diffs = append(rep.Diffs, d)
		}
	}
	if rep.Events > 0 {
		rep.ZeroAnswerRateRecorded = float64(zeroRec) / float64(rep.Events)
	}
	if rep.Replayed > 0 {
		rep.ZeroAnswerRateReplayed = float64(zeroRep) / float64(rep.Replayed)
		rep.AnswersPerQueryRep = float64(ansRep) / float64(rep.Replayed)
	}
	if rep.Events > 0 {
		rep.AnswersPerQueryRec = float64(ansRec) / float64(rep.Events)
	}
	if shiftN > 0 {
		rep.SimShiftMean = shiftSum / float64(shiftN)
	}
	sort.SliceStable(rep.Diffs, func(i, j int) bool {
		if (rep.Diffs[i].Err != "") != (rep.Diffs[j].Err != "") {
			return rep.Diffs[i].Err != ""
		}
		return rep.Diffs[i].SimShiftMax > rep.Diffs[j].SimShiftMax
	})
	return rep
}

func equalValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
