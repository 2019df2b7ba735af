package engine

import (
	"math/rand"
	"testing"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// Metamorphic relations of conjunctive query evaluation: properties that
// must hold between the results of *related* queries, checked over many
// random queries. These are the invariants AIMQ's relaxation machinery
// rests on — dropping a predicate must never lose an answer, adding one
// must never gain one.

// randomQuery builds a random conjunctive query with 1–4 predicates.
func randomQuery(rng *rand.Rand, s *relation.Schema) *query.Query {
	makes := []string{"Toyota", "Honda", "Ford", "BMW", "Nissan"}
	models := []string{"Camry", "Accord", "Focus", "Civic", "Altima", "328i"}
	q := query.New(s)
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			q.Where("Make", query.OpEq, relation.Cat(makes[rng.Intn(len(makes))]))
		case 1:
			q.Where("Model", query.OpEq, relation.Cat(models[rng.Intn(len(models))]))
		case 2:
			lo := 1988 + rng.Float64()*16
			q.WhereRange("Year", lo, lo+rng.Float64()*8)
		case 3:
			q.WhereIn("Make",
				relation.Cat(makes[rng.Intn(len(makes))]),
				relation.Cat(makes[rng.Intn(len(makes))]))
		case 4:
			q.Where("Year", query.OpEq, relation.Numv(float64(1990+rng.Intn(17))))
		default:
			q.Where("Price", query.OpLess, relation.Numv(float64(2000+rng.Intn(28000))))
		}
	}
	return q
}

func asSet(pos []int) map[int]bool {
	out := make(map[int]bool, len(pos))
	for _, p := range pos {
		out[p] = true
	}
	return out
}

func TestMetamorphicRelaxationMonotone(t *testing.T) {
	rel := randomRel(1500, 71)
	e := New(rel)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 100; trial++ {
		q := randomQuery(rng, rel.Schema())
		if len(q.Preds) < 2 {
			continue
		}
		full := asSet(e.Execute(q, 0))
		// Dropping any one bound attribute must produce a superset.
		drop := q.Preds[rng.Intn(len(q.Preds))].Attr
		relaxed := e.Execute(q.DropAttrs(relation.NewAttrSet(drop)), 0)
		relaxedSet := asSet(relaxed)
		for pos := range full {
			if !relaxedSet[pos] {
				t.Fatalf("trial %d: relaxation of %s lost tuple %d", trial, q, pos)
			}
		}
	}
}

func TestMetamorphicConjunctionShrinks(t *testing.T) {
	rel := randomRel(1500, 73)
	e := New(rel)
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 100; trial++ {
		q := randomQuery(rng, rel.Schema())
		base := asSet(e.Execute(q, 0))
		// Adding a predicate must produce a subset.
		tightened := q.Clone()
		tightened.Where("Price", query.OpGreater, relation.Numv(float64(rng.Intn(20000))))
		for _, pos := range e.Execute(tightened, 0) {
			if !base[pos] {
				t.Fatalf("trial %d: tightening %s gained tuple %d", trial, q, pos)
			}
		}
	}
}

func TestMetamorphicPredicateOrderIrrelevant(t *testing.T) {
	rel := randomRel(1000, 75)
	e := New(rel)
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 100; trial++ {
		q := randomQuery(rng, rel.Schema())
		if len(q.Preds) < 2 {
			continue
		}
		shuffled := q.Clone()
		rng.Shuffle(len(shuffled.Preds), func(i, j int) {
			shuffled.Preds[i], shuffled.Preds[j] = shuffled.Preds[j], shuffled.Preds[i]
		})
		a, b := asSet(e.Execute(q, 0)), asSet(e.Execute(shuffled, 0))
		if len(a) != len(b) {
			t.Fatalf("trial %d: predicate order changed result size: %d vs %d", trial, len(a), len(b))
		}
		for pos := range a {
			if !b[pos] {
				t.Fatalf("trial %d: predicate order changed results", trial)
			}
		}
	}
}

func TestMetamorphicDuplicateQueryIdempotent(t *testing.T) {
	rel := randomRel(800, 77)
	e := New(rel)
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 50; trial++ {
		q := randomQuery(rng, rel.Schema())
		first := e.Execute(q, 0)
		second := e.Execute(q, 0)
		if len(first) != len(second) {
			t.Fatalf("trial %d: re-execution differs", trial)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("trial %d: re-execution order differs at %d", trial, i)
			}
		}
	}
}

// TestMetamorphicEnginesAgree: every metamorphic query stream produces the
// same position set on the columnar and legacy engines, and Count agrees
// with materialization on both.
func TestMetamorphicEnginesAgree(t *testing.T) {
	rel := randomRel(1500, 81)
	col, leg := New(rel), newLegacy(rel)
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 150; trial++ {
		q := randomQuery(rng, rel.Schema())
		a, b := col.Execute(q, 0), leg.Execute(q, 0)
		if !equalIntSets(a, b) {
			t.Fatalf("trial %d: columnar %d vs legacy %d results for %s", trial, len(a), len(b), q)
		}
		if ca, cb := col.Count(q), leg.Count(q); ca != len(a) || cb != len(a) {
			t.Fatalf("trial %d: counts %d/%d, want %d for %s", trial, ca, cb, len(a), q)
		}
	}
}

func TestMetamorphicLimitPrefix(t *testing.T) {
	rel := randomRel(1200, 79)
	e := New(rel)
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 50; trial++ {
		q := randomQuery(rng, rel.Schema())
		full := e.Execute(q, 0)
		if len(full) < 2 {
			continue
		}
		k := 1 + rng.Intn(len(full)-1)
		limited := e.Execute(q, k)
		if len(limited) != k {
			t.Fatalf("trial %d: limit %d returned %d", trial, k, len(limited))
		}
		// The limited result is a prefix of the full scan order.
		for i := range limited {
			if limited[i] != full[i] {
				t.Fatalf("trial %d: limited result not a prefix", trial)
			}
		}
	}
}
