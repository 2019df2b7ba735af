// Package similarity implements AIMQ's query-tuple similarity estimation
// (paper §5): the categorical value-similarity measure VSim mined from
// supertuples, the numeric similarity, and the weighted combination Sim(Q,t)
// used to rank answers.
//
//	Sim(Q,t) = Σ_i W_imp(A_i) × { VSim(Q.A_i, t.A_i)          categorical
//	                            { 1 − |Q.A_i − t.A_i| / Q.A_i  numerical
//
// over the attributes bound by Q, with the numeric distance clamped at 1 so
// similarity is bounded below by 0. VSim between two values of a
// categorical attribute is the weighted sum of bag-semantics Jaccard
// coefficients between the corresponding supertuples' per-attribute keyword
// bags, again weighted by attribute importance.
package similarity

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"aimq/internal/afd"
	"aimq/internal/bag"
	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/supertuple"
)

// Estimator computes value and query-tuple similarities. Build one per
// mined sample with New; it precomputes the pairwise value-similarity
// matrix for every categorical attribute (the paper's O(m·k²) offline
// "similarity estimation" phase of Table 2).
type Estimator struct {
	Schema   *relation.Schema
	Ordering *afd.Ordering
	Index    *supertuple.Index

	// MinSim: precomputed pair similarities below this are dropped from
	// the matrix (they read back as 0). Keeps the matrices sparse.
	MinSim float64

	sweepWorkers int

	// matrices[attr][v1][v2] = VSim(v1, v2), v1 != v2, symmetric storage.
	matrices map[int]map[string]map[string]float64
}

// Config tunes Estimator construction.
type Config struct {
	// MinSim drops precomputed similarities below this value. Default 0
	// (keep all nonzero).
	MinSim float64

	// SweepWorkers chunks each attribute's O(k²) pair sweep across this
	// many goroutines (k = distinct values of the attribute). 0 uses
	// GOMAXPROCS; 1 forces the serial sweep. Every pair is computed
	// independently from the same flattened bags, so the resulting matrix
	// is bit-identical at any worker count.
	SweepWorkers int
}

// New builds an estimator from a supertuple index and an attribute
// ordering, precomputing all pairwise categorical value similarities. The
// per-attribute matrices are independent, so they are computed in parallel
// (this is the offline "similarity estimation" phase of Table 2).
func New(idx *supertuple.Index, ord *afd.Ordering, cfg Config) *Estimator {
	e := &Estimator{
		Schema:       idx.Schema,
		Ordering:     ord,
		Index:        idx,
		MinSim:       cfg.MinSim,
		sweepWorkers: cfg.SweepWorkers,
		matrices:     make(map[int]map[string]map[string]float64),
	}
	cats := e.Schema.Categorical()
	results := make([]map[string]map[string]float64, len(cats))
	var wg sync.WaitGroup
	for i, attr := range cats {
		wg.Add(1)
		go func(i, attr int) {
			defer wg.Done()
			results[i] = e.computeMatrix(attr)
		}(i, attr)
	}
	wg.Wait()
	for i, attr := range cats {
		e.matrices[attr] = results[i]
	}
	return e
}

// computeMatrix computes VSim for every pair of values of one categorical
// attribute. Attribute-bag weights are the importance weights over the
// *other* attributes of the relation (the supertuple never bags its own
// attribute).
func (e *Estimator) computeMatrix(attr int) map[string]map[string]float64 {
	values := e.Index.Values(attr)
	others := relation.AttrSet(0)
	attrs := make([]int, 0, e.Schema.Arity()-1)
	for a := 0; a < e.Schema.Arity(); a++ {
		if a != attr {
			others = others.Add(a)
			attrs = append(attrs, a)
		}
	}
	weights := e.Ordering.ImportanceWeights(others)

	// Flatten every value's bags once: the O(k²) pair sweep below is the
	// dominant cost of the offline phase, and merge-joining sorted slices
	// beats re-hashing the same bag maps k times each.
	wflat := make([]float64, len(attrs))
	for i, a := range attrs {
		wflat[i] = weights[a]
	}
	flats := make([][][]bag.Entry, len(values))
	for i, v := range values {
		st := e.Index.Get(attr, v)
		fl := make([][]bag.Entry, len(attrs))
		for j, a := range attrs {
			if bg, ok := st.Bags[a]; ok {
				fl[j] = bag.Flatten(bg)
			}
		}
		flats[i] = fl
	}

	m := make(map[string]map[string]float64, len(values))
	put := func(a, b string, sim float64) {
		row := m[a]
		if row == nil {
			row = make(map[string]float64)
			m[a] = row
		}
		row[b] = sim
	}
	for _, p := range e.sweepPairs(values, flats, wflat) {
		put(values[p.i], values[p.j], p.sim)
		put(values[p.j], values[p.i], p.sim)
	}
	return m
}

// pairSim is one surviving (above-threshold) pair of the sweep.
type pairSim struct {
	i, j int
	sim  float64
}

// sweepPairs runs the O(k²) pair sweep, chunked across sweepWorkers
// goroutines. Rows are dealt round-robin (worker w takes rows w, w+n,
// w+2n, …) so the triangular workload stays balanced without estimating
// per-row cost. Each pair reads only the shared immutable flats, so the
// partitioning cannot change any computed similarity: the matrix is
// bit-identical at every worker count (asserted by TestSweepBitIdentity).
func (e *Estimator) sweepPairs(values []string, flats [][][]bag.Entry, wflat []float64) []pairSim {
	k := len(values)
	sweepRow := func(i int, out []pairSim) []pairSim {
		for j := i + 1; j < k; j++ {
			sim := vsim(flats[i], flats[j], wflat)
			if sim <= 0 || sim < e.MinSim {
				continue
			}
			out = append(out, pairSim{i: i, j: j, sim: sim})
		}
		return out
	}

	workers := e.sweepWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k/2 {
		workers = k / 2 // too few rows to be worth splitting further
	}
	if workers <= 1 {
		var out []pairSim
		for i := 0; i < k; i++ {
			out = sweepRow(i, out)
		}
		return out
	}

	parts := make([][]pairSim, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []pairSim
			for i := w; i < k; i += workers {
				out = sweepRow(i, out)
			}
			parts[w] = out
		}(w)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]pairSim, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// vsim is VSim(C1, C2) = Σ W_imp(A_i) × SimJ(C1.A_i, C2.A_i) over the
// supertuples' flattened attribute bags (parallel slices in ascending
// attribute position). The fixed accumulation order matters: float addition
// is not associative, so iterating a weights map directly would make the
// last ulp of a similarity depend on map iteration order and break
// bit-identical model snapshots. A nil flat slice means the supertuple has
// no bag for that attribute, matching the map-form absence check.
func vsim(f1, f2 [][]bag.Entry, weights []float64) float64 {
	total := 0.0
	for i := range weights {
		b1, b2 := f1[i], f2[i]
		if b1 == nil || b2 == nil {
			continue
		}
		total += weights[i] * bag.JaccardFlat(b1, b2)
	}
	return total
}

// VSim returns the mined similarity between two values of a categorical
// attribute. Identical values have similarity 1; values unseen in the
// sample have similarity 0 to everything else.
func (e *Estimator) VSim(attr int, v1, v2 string) float64 {
	if v1 == v2 {
		return 1
	}
	row := e.matrices[attr][v1]
	if row == nil {
		return 0
	}
	return row[v2]
}

// Matrix returns a deep copy of the pairwise similarity matrix of one
// categorical attribute (v1 → v2 → sim; symmetric, self-pairs omitted).
// Used by model persistence.
func (e *Estimator) Matrix(attr int) map[string]map[string]float64 {
	src := e.matrices[attr]
	out := make(map[string]map[string]float64, len(src))
	for v1, row := range src {
		cp := make(map[string]float64, len(row))
		for v2, s := range row {
			cp[v2] = s
		}
		out[v1] = cp
	}
	return out
}

// FromMatrices reconstructs an estimator from persisted similarity
// matrices, bypassing the supertuple mining pass. The matrices map is keyed
// by attribute position and is used as-is (not copied).
func FromMatrices(sc *relation.Schema, ord *afd.Ordering, matrices map[int]map[string]map[string]float64) *Estimator {
	e := &Estimator{
		Schema:   sc,
		Ordering: ord,
		matrices: make(map[int]map[string]map[string]float64, len(matrices)),
	}
	for _, attr := range sc.Categorical() {
		m := matrices[attr]
		if m == nil {
			m = make(map[string]map[string]float64)
		}
		e.matrices[attr] = m
	}
	return e
}

// SetVSim overrides the mined similarity between two values of a
// categorical attribute (both directions). It is the mutation hook used by
// relevance-feedback tuning (paper §7); sim is clamped to [0, 1] and
// identical values are ignored (self-similarity is always 1).
func (e *Estimator) SetVSim(attr int, v1, v2 string, sim float64) {
	if v1 == v2 {
		return
	}
	if sim < 0 {
		sim = 0
	}
	if sim > 1 {
		sim = 1
	}
	m := e.matrices[attr]
	if m == nil {
		m = make(map[string]map[string]float64)
		e.matrices[attr] = m
	}
	put := func(a, b string) {
		row := m[a]
		if row == nil {
			row = make(map[string]float64)
			m[a] = row
		}
		row[b] = sim
	}
	put(v1, v2)
	put(v2, v1)
}

// ValueSim pairs a value with its similarity to some reference value.
type ValueSim struct {
	Value string
	Sim   float64
}

// TopSimilar returns the n values most similar to v under attr, descending,
// excluding v itself and zero-similarity values. This regenerates the
// paper's Table 3 rows.
func (e *Estimator) TopSimilar(attr int, v string, n int) []ValueSim {
	row := e.matrices[attr][v]
	out := make([]ValueSim, 0, len(row))
	for o, s := range row {
		if s > 0 {
			out = append(out, ValueSim{Value: o, Sim: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Value < out[j].Value
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Edge is one edge of a value-similarity graph.
type Edge struct {
	A, B string
	Sim  float64
}

// Graph returns the similarity graph of an attribute: all value pairs with
// similarity >= threshold, each pair once (A < B), sorted by descending
// similarity. This regenerates the paper's Figure 5 (Make=Ford's
// neighborhood).
func (e *Estimator) Graph(attr int, threshold float64) []Edge {
	var out []Edge
	for a, row := range e.matrices[attr] {
		for b, s := range row {
			if a < b && s >= threshold {
				out = append(out, Edge{A: a, B: b, Sim: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// NumericSim is the paper's numeric similarity 1 − |q−t|/q clamped to
// [0,1]. A zero query value degenerates the ratio, so equality is required
// there.
func NumericSim(q, t float64) float64 {
	if q == 0 {
		if t == 0 {
			return 1
		}
		return 0
	}
	d := math.Abs(q-t) / math.Abs(q)
	if d > 1 {
		d = 1
	}
	return 1 - d
}

// Sim computes Sim(Q, t): the importance-weighted similarity between an
// imprecise query and a candidate tuple over the query's bound attributes,
// under weights = Ordering.ImportanceWeights(q.BoundAttrs()). Range
// predicates and comparisons contribute via their boundary value (range via
// its midpoint). Null tuple values contribute 0. Callers scoring many tuples
// against one query prepare a QueryScorer once instead.
func (e *Estimator) Sim(q *query.Query, t relation.Tuple, weights []float64) float64 {
	return e.PrepareQuery(q, weights).Score(t)
}

// QueryScorer scores tuples against one query: Score(t) is Sim(q, t,
// weights), adding the same terms in the same order, so every score is
// bit-identical. The VSim row of each categorical =/like predicate value is
// read once, when the scorer is prepared; in and range predicates go
// through predSim per tuple.
type QueryScorer struct {
	est   *Estimator
	terms []queryTerm
}

// queryTerm is one predicate of a QueryScorer with its weight.
type queryTerm struct {
	p      query.Predicate
	weight float64
	// resolved marks a categorical =/like predicate, scored from row (the
	// VSim row of p.Value) instead of predSim.
	resolved bool
	row      map[string]float64
}

// PrepareQuery returns the scorer of Sim(q, ·, weights). It reads the live
// matrices, so it sees SetVSim feedback made before it was prepared.
func (e *Estimator) PrepareQuery(q *query.Query, weights []float64) *QueryScorer {
	s := &QueryScorer{est: e, terms: make([]queryTerm, len(q.Preds))}
	for i, p := range q.Preds {
		tm := queryTerm{p: p, weight: weights[p.Attr]}
		if (p.Op == query.OpEq || p.Op == query.OpLike) && e.Schema.Type(p.Attr) == relation.Categorical {
			tm.resolved, tm.row = true, e.matrices[p.Attr][p.Value.Str]
		}
		s.terms[i] = tm
	}
	return s
}

// Score returns Sim(q, t, weights) for the prepared query and weights.
func (s *QueryScorer) Score(t relation.Tuple) float64 {
	total := 0.0
	for i := range s.terms {
		tm := &s.terms[i]
		tv := &t[tm.p.Attr]
		if tv.Null {
			continue
		}
		var sim float64
		switch {
		case !tm.resolved:
			sim = s.est.predSim(tm.p, *tv)
		case tv.Str == tm.p.Value.Str:
			sim = 1
		default:
			sim = tm.row[tv.Str]
		}
		total += tm.weight * sim
	}
	return total
}

// predSim is one predicate's unweighted similarity term against a tuple
// value — the sim_i of Sim(Q,t) = Σ W_imp(A_i) × sim_i. Shared by Sim and
// SimExplain so a score and its decomposition can never drift apart.
func (e *Estimator) predSim(p query.Predicate, tv relation.Value) float64 {
	typ := e.Schema.Type(p.Attr)
	if p.Op == query.OpIn {
		// Disjunction: the tuple is as similar as its best alternative.
		best := 0.0
		for _, alt := range p.Values {
			var s float64
			if typ == relation.Categorical {
				s = e.VSim(p.Attr, alt.Str, tv.Str)
			} else {
				s = NumericSim(alt.Num, tv.Num)
			}
			if s > best {
				best = s
			}
		}
		return best
	}
	qv := p.Value
	if p.Op == query.OpRange {
		qv = relation.Numv((p.Value.Num + p.Hi.Num) / 2)
	}
	if typ == relation.Categorical {
		return e.VSim(p.Attr, qv.Str, tv.Str)
	}
	return NumericSim(qv.Num, tv.Num)
}

// SimExplain computes Sim(Q, t) together with its per-attribute
// decomposition: one obs.Contribution per predicate of Q, whose Terms
// (weight × sim) sum — in the same floating-point accumulation order Sim
// uses — to the returned total. Predicates over null tuple values appear
// with Sim and Term 0, so the breakdown always covers every bound
// attribute.
func (e *Estimator) SimExplain(q *query.Query, t relation.Tuple) (float64, []obs.Contribution) {
	bound := q.BoundAttrs()
	if bound.Empty() {
		return 0, nil
	}
	weights := e.Ordering.ImportanceWeights(bound)
	contribs := make([]obs.Contribution, 0, len(q.Preds))
	total := 0.0
	for _, p := range q.Preds {
		w := weights[p.Attr]
		c := obs.Contribution{Attr: e.Schema.Attr(p.Attr).Name, Weight: w}
		tv := t[p.Attr]
		if !tv.IsNull() {
			c.Sim = e.predSim(p, tv)
			c.Term = w * c.Sim
			total += c.Term
		}
		contribs = append(contribs, c)
	}
	return total, contribs
}

// SimTuples computes the similarity between two tuples, treating the first
// tuple as a fully-bound query (Algorithm 1 measures Sim(t, t′) between a
// base-set tuple and a retrieved tuple). weights is
// Ordering.ImportanceWeights of the compared attribute set, so attributes
// outside it weigh 0. Callers scoring many tuples against one first tuple
// (the engine's gate, against each base tuple) prepare a TupleScorer once
// instead.
func (e *Estimator) SimTuples(t1, t2 relation.Tuple, weights []float64) float64 {
	return e.PrepareTuple(t1, weights).Score(t2)
}

// TupleScorer scores tuples against one fixed tuple: Score(t) is
// SimTuples(base, t, weights), adding the same terms in the same order, so
// every score is bit-identical. The VSim row of each categorical base value
// is read once, when the scorer is prepared, so a differing categorical
// value costs one string-keyed probe.
type TupleScorer struct {
	base  relation.Tuple
	terms []tupleTerm
}

// tupleTerm is one attribute of a TupleScorer.
type tupleTerm struct {
	weight      float64
	categorical bool
	// row is the VSim row of the base tuple's value: nil for numeric
	// attributes, null base values and values with no similar values.
	row map[string]float64
}

// PrepareTuple returns the scorer of SimTuples(base, ·, weights). It reads
// the live matrices, so it sees SetVSim feedback made before it was
// prepared.
func (e *Estimator) PrepareTuple(base relation.Tuple, weights []float64) *TupleScorer {
	s := &TupleScorer{base: base, terms: make([]tupleTerm, len(weights))}
	for a, w := range weights {
		tm := tupleTerm{weight: w, categorical: e.Schema.Type(a) == relation.Categorical}
		if tm.categorical && !base[a].Null {
			tm.row = e.matrices[a][base[a].Str]
		}
		s.terms[a] = tm
	}
	return s
}

// Score returns SimTuples(base, t, weights) for the prepared base tuple and
// weights.
func (s *TupleScorer) Score(t relation.Tuple) float64 {
	total := 0.0
	for a := range s.terms {
		tm := &s.terms[a]
		v1, v2 := &s.base[a], &t[a]
		if v1.Null || v2.Null {
			continue
		}
		if !tm.categorical {
			total += tm.weight * NumericSim(v1.Num, v2.Num)
			continue
		}
		sim := 1.0
		if v1.Str != v2.Str {
			sim = tm.row[v2.Str]
		}
		total += tm.weight * sim
	}
	return total
}

// Weight returns the prepared weight of attribute attr.
func (s *TupleScorer) Weight(attr int) float64 { return s.terms[attr].weight }

// MaxVSim returns an upper bound on VSim(attr, v, v') over every value
// v' ≠ v of the base tuple's value v: the largest similarity in v's mined
// row (0 when v is null or has no similar values). Relaxation pruning uses
// it as the cap on how much similarity a dropped categorical attribute can
// still contribute from a non-identical value.
func (s *TupleScorer) MaxVSim(attr int) float64 {
	m := 0.0
	for _, sim := range s.terms[attr].row {
		if sim > m {
			m = sim
		}
	}
	return m
}

// DescribeNeighborhood renders the top similar values of one AV-pair, in
// the style of the paper's Table 3 / Figure 5 commentary.
func (e *Estimator) DescribeNeighborhood(attr int, v string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s=%s:", e.Schema.Attr(attr).Name, v)
	for _, vs := range e.TopSimilar(attr, v, n) {
		fmt.Fprintf(&b, " %s(%.3f)", vs.Value, vs.Sim)
	}
	return b.String()
}
