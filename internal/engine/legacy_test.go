package engine

// The legacy row-at-a-time evaluator: hash indexes on every attribute
// (exact-match lookup), sorted projections on numeric attributes (range
// lookup), most-selective indexed predicate as access path. This was the
// engine before the columnar rewrite; it now lives only here, as the oracle
// the differential and metamorphic suites compare the columnar engine
// against. Results are in access-path order, not necessarily ascending.
//
// Its indexes follow Predicate.Matches on signed zeros and NaN: -0 and +0
// share one hash entry (they are == as floats), and a NaN value is in no
// index, since it equals nothing and orders against nothing.

import (
	"math"
	"sort"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// executor is what the differential suites compare: the columnar Engine
// and the legacy oracle.
type executor interface {
	Execute(q *query.Query, limit int) []int
	Count(q *query.Query) int
}

// legacyEngine answers boolean queries with the pre-columnar evaluator.
type legacyEngine struct {
	rel *relation.Relation
	// hash index attribute -> value key -> positions, and sorted numeric
	// projections for range lookup
	hash   []map[string][]int32
	sorted [][]int32
}

func newLegacy(rel *relation.Relation) *legacyEngine {
	s := rel.Schema()
	n := s.Arity()
	e := &legacyEngine{rel: rel, hash: make([]map[string][]int32, n), sorted: make([][]int32, n)}
	for a := 0; a < n; a++ {
		e.hash[a] = make(map[string][]int32)
	}
	tuples := rel.Tuples()
	for i, t := range tuples {
		for a := 0; a < n; a++ {
			v := t[a]
			if v.IsNull() || (s.Type(a) == relation.Numeric && math.IsNaN(v.Num)) {
				continue
			}
			k := hashKey(v, s.Type(a))
			e.hash[a][k] = append(e.hash[a][k], int32(i))
		}
	}
	for _, a := range s.NumericAttrs() {
		idx := make([]int32, 0, len(tuples))
		for i, t := range tuples {
			if !t[a].IsNull() && !math.IsNaN(t[a].Num) {
				idx = append(idx, int32(i))
			}
		}
		sort.Slice(idx, func(x, y int) bool {
			return tuples[idx[x]][a].Num < tuples[idx[y]][a].Num
		})
		e.sorted[a] = idx
	}
	return e
}

// hashKey is v's hash-index key: its canonical key, with -0 keyed as +0.
func hashKey(v relation.Value, t relation.AttrType) string {
	if t == relation.Numeric && v.Num == 0 {
		v.Num = 0
	}
	return v.Key(t)
}

// Count counts by materializing, as the legacy engine always did.
func (e *legacyEngine) Count(q *query.Query) int { return len(e.Execute(q, 0)) }

// Execute returns the positions of the tuples satisfying q, in access-path
// order, up to limit (<= 0 means unlimited).
func (e *legacyEngine) Execute(q *query.Query, limit int) []int {
	candidates, residual := e.accessPath(q)
	var out []int
	emit := func(pos int32, preds []query.Predicate) bool {
		t := e.rel.Tuple(int(pos))
		for _, p := range preds {
			if !p.Matches(t, q.Schema) {
				return false
			}
		}
		out = append(out, int(pos))
		return limit > 0 && len(out) >= limit
	}

	if candidates == nil {
		// Full scan.
		for i := 0; i < e.rel.Size(); i++ {
			if emit(int32(i), q.Preds) {
				break
			}
		}
	} else {
		for _, pos := range candidates {
			if emit(pos, residual) {
				break
			}
		}
	}
	return out
}

// accessPath picks the most selective indexed predicate as the driver and
// returns its candidate positions plus the residual predicates to check.
// When a second indexed equality predicate exists and the driver list is
// long, the two posting lists are intersected first (both are in ascending
// tuple order by construction), which turns wide conjunctive lookups from a
// scan of the smaller list into a merge. A nil candidate slice means no
// usable index: full scan with all predicates.
func (e *legacyEngine) accessPath(q *query.Query) (candidates []int32, residual []query.Predicate) {
	s := q.Schema
	type indexed struct {
		pred int
		cand []int32
		eq   bool
	}
	var lookups []indexed
	for i, p := range q.Preds {
		var cand []int32
		eq := false
		switch p.Op {
		case query.OpEq, query.OpLike:
			cand = e.hash[p.Attr][hashKey(p.Value, s.Type(p.Attr))]
			eq = true
		case query.OpIn:
			// Union of the alternatives' posting lists, re-sorted into
			// ascending position order so it stays merge-intersectable.
			// Duplicate alternatives (or ones sharing a posting list) must
			// not yield duplicate positions: compact after sorting.
			for _, alt := range p.Values {
				cand = append(cand, e.hash[p.Attr][hashKey(alt, s.Type(p.Attr))]...)
			}
			sort.Slice(cand, func(x, y int) bool { return cand[x] < cand[y] })
			uniq := cand[:0]
			for i, pos := range cand {
				if i == 0 || pos != cand[i-1] {
					uniq = append(uniq, pos)
				}
			}
			cand = uniq
			eq = true
		case query.OpLess:
			cand = e.rangeLookup(p.Attr, negInf, p.Value.Num, false)
		case query.OpGreater:
			cand = e.rangeLookup(p.Attr, p.Value.Num, posInf, true)
		case query.OpRange:
			cand = e.rangeLookup(p.Attr, p.Value.Num, p.Hi.Num, false)
		default:
			continue
		}
		lookups = append(lookups, indexed{pred: i, cand: cand, eq: eq})
	}
	if len(lookups) == 0 {
		return nil, q.Preds
	}
	best := 0
	for i := range lookups {
		if len(lookups[i].cand) < len(lookups[best].cand) {
			best = i
		}
	}
	bestCand := lookups[best].cand
	drop := map[int]bool{lookups[best].pred: true}
	// Intersect with the smallest *other* equality posting list when the
	// driver is long enough for the merge to pay for itself. Only equality
	// lists are safe to merge: hash posting lists are in ascending tuple
	// order by construction, range lookups are in value order.
	if lookups[best].eq && len(bestCand) > 64 {
		second := -1
		for i := range lookups {
			if i == best || !lookups[i].eq {
				continue
			}
			if second == -1 || len(lookups[i].cand) < len(lookups[second].cand) {
				second = i
			}
		}
		if second != -1 {
			bestCand = intersectSorted(bestCand, lookups[second].cand)
			drop[lookups[second].pred] = true
		}
	}
	residual = make([]query.Predicate, 0, len(q.Preds)-1)
	for i, p := range q.Preds {
		if !drop[i] {
			residual = append(residual, p)
		}
	}
	// bestCand may legitimately be empty (no matches); distinguish that from
	// "no index" by returning a non-nil empty slice.
	if bestCand == nil {
		bestCand = []int32{}
	}
	return bestCand, residual
}

// intersectSorted merges two ascending position lists.
func intersectSorted(a, b []int32) []int32 {
	out := make([]int32, 0, minInt(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

const (
	negInf = -1.7976931348623157e308
	posInf = 1.7976931348623157e308
)

// rangeLookup returns positions whose attr value lies in [lo, hi]
// (exclusive of the bound used as sentinel: OpLess excludes hi via strict
// comparison below, OpGreater excludes lo).
func (e *legacyEngine) rangeLookup(attr int, lo, hi float64, exclusiveLo bool) []int32 {
	idx := e.sorted[attr]
	if idx == nil {
		return nil
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return []int32{} // no value compares with a NaN bound
	}
	tuples := e.rel.Tuples()
	val := func(i int) float64 { return tuples[idx[i]][attr].Num }
	// first position with val >= lo (or > lo when exclusive)
	start := sort.Search(len(idx), func(i int) bool {
		if exclusiveLo {
			return val(i) > lo
		}
		return val(i) >= lo
	})
	// first position with val > hi; for OpLess (hi exclusive) the caller
	// passes hi as the strict bound, so use >= there. We detect OpLess by
	// hi being the predicate bound and lo the sentinel.
	var end int
	if lo == negInf { // OpLess: [min, hi)
		end = sort.Search(len(idx), func(i int) bool { return val(i) >= hi })
	} else { // OpRange or OpGreater: [..., hi]
		end = sort.Search(len(idx), func(i int) bool { return val(i) > hi })
	}
	if start >= end {
		return []int32{}
	}
	return idx[start:end]
}
